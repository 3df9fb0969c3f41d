//! Executable fixtures for the determinism rules clippy enforces
//! (DESIGN.md §10): one test per rule id, each committing that rule's
//! violations under `#[expect]`. Clippy silently ignores a `clippy.toml`
//! path it cannot resolve; here that leaves an expectation unfulfilled,
//! which `cargo clippy --workspace --all-targets -- -D warnings` reports
//! as an error. A plain `cargo test` runs the bodies but does not check
//! the lints.

use crate::json::JsonValue;
use crate::rng::SimRng;

#[test]
fn r1_std_hash_collections_fire() {
    #[expect(clippy::disallowed_types, reason = "fixture: R1 must fire")]
    let map: std::collections::HashMap<u64, u64> = Default::default();
    #[expect(clippy::disallowed_types, reason = "fixture: R1 must fire")]
    let set: std::collections::HashSet<u64> = Default::default();
    assert!(map.is_empty() && set.is_empty());
}

#[test]
fn r2_clocks_threads_and_env_reads_fire() {
    #[expect(clippy::disallowed_types, reason = "fixture: R2 must fire")]
    let instant: Option<std::time::Instant> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: R2 must fire")]
    let system_time: Option<std::time::SystemTime> = None;
    assert!(instant.is_none() && system_time.is_none());
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    let _ = std::env::var("CLIPPY_FIXTURE_UNSET");
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    let _ = std::env::var_os("CLIPPY_FIXTURE_UNSET");
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    let _ = std::env::vars().count();
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    let _ = std::thread::available_parallelism();
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    std::thread::sleep(std::time::Duration::ZERO);
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    std::thread::spawn(|| ()).join().unwrap();
    #[expect(clippy::disallowed_methods, reason = "fixture: R2 must fire")]
    std::thread::scope(|_| ());
}

#[test]
fn r3_rng_construction_and_forking_fire() {
    #[expect(clippy::disallowed_methods, reason = "fixture: R3 must fire")]
    let root = SimRng::new(7);
    #[expect(clippy::disallowed_methods, reason = "fixture: R3 must fire")]
    let mut child = root.fork("fixture");
    let _ = child.next_u64();
}

#[test]
fn r4_library_printing_fires() {
    // Lint attributes on a macro statement are ignored, so each print
    // sits in its own item.
    #[expect(clippy::print_stdout, reason = "fixture: R4 must fire")]
    fn stdout() {
        println!("fixture: R4 stdout");
    }
    #[expect(clippy::print_stderr, reason = "fixture: R4 must fire")]
    fn stderr() {
        eprintln!("fixture: R4 stderr");
    }
    stdout();
    stderr();
}

#[test]
fn r5_nan_unsafe_ordering_fires() {
    let mut v = vec![0.5f64, 0.25];
    // The comparator's partial_cmp call is what fires, so the one entry
    // covers `partial_cmp(..).unwrap()` and float sorts alike.
    #[expect(clippy::disallowed_methods, reason = "fixture: R5 must fire")]
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(v, [0.25, 0.5]);
}

#[test]
fn r9_panic_capture_fires() {
    #[expect(clippy::disallowed_methods, reason = "fixture: R9 must fire")]
    let hook = std::panic::take_hook();
    // Puts the taken hook straight back, so concurrent tests see no change.
    #[expect(clippy::disallowed_methods, reason = "fixture: R9 must fire")]
    std::panic::set_hook(hook);
    #[expect(clippy::disallowed_methods, reason = "fixture: R9 must fire")]
    let caught = std::panic::catch_unwind(|| 1);
    assert_eq!(caught.ok(), Some(1));
}

#[test]
fn r11_wildcard_enum_arms_fire() {
    let value = JsonValue::Null;
    #[expect(clippy::wildcard_enum_match_arm, reason = "fixture: R11 must fire")]
    let rank = match value {
        JsonValue::Null => 0,
        _ => 1,
    };
    assert_eq!(rank, 0);
}
