//! The sharded worker pool and the in-order emitter.
//!
//! Workers pull jobs from a shared index and run them under the
//! supervisor; the main thread owns a reorder buffer and emits every
//! job's block in *spec order*, so batch output is byte-identical for
//! any shard count. All side effects with ordering or identity
//! consequences — sink delivery, cache stores, dump-file writes — happen
//! only on the main thread at emission time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::cache::{CachedJob, ResultCache};
use crate::outcome::JobBlock;
use crate::sink::SinkSlot;
use crate::spec::{BatchItem, JobSpec};
use crate::summary::BatchSummary;
use crate::supervisor::{dump_name, paranoia_dump_name, run_job};
use gat_sim::json::Obj;

/// Engine configuration (everything that is not the batch itself).
pub struct EngineOptions {
    /// Worker threads. Clamped to at least 1; the output is identical
    /// for every value — shards only trade wall-clock time.
    pub shards: usize,
    /// Result cache (use [`ResultCache::disabled`] to switch it off).
    pub cache: ResultCache,
    /// Where per-job watchdog/paranoia dumps go; `None` disables them.
    pub dump_dir: Option<PathBuf>,
}

/// One slot of the reorder buffer: everything needed to emit a job.
struct Emission {
    /// Outcome tag for the summary histogram; `None` for spec errors.
    tag: Option<String>,
    id: Option<String>,
    lines: String,
    diagnostic: Option<String>,
    cached: bool,
    attempts: u32,
    /// `Some(key)` = persist to the cache when emitted.
    store_key: Option<String>,
}

/// Run a parsed batch to completion. Never fails: job-level trouble is
/// typed into the emitted blocks, and the returned summary carries the
/// histogram plus cache/retry/loss accounting.
pub fn run_batch(
    items: &[BatchItem],
    opts: &EngineOptions,
    sinks: &mut [SinkSlot],
) -> BatchSummary {
    let mut slots: Vec<Option<Emission>> = Vec::with_capacity(items.len());
    // (reorder-buffer slot, spec, content hash) for every cache miss.
    let mut work: Vec<(usize, JobSpec, String)> = Vec::new();

    for (slot, item) in items.iter().enumerate() {
        match item {
            BatchItem::Bad(err) => {
                let mut line = Obj::new()
                    .str("type", "job_spec_error")
                    .u64("line", err.line as u64)
                    .str("detail", &err.detail)
                    .finish();
                line.push('\n');
                slots.push(Some(Emission {
                    tag: None,
                    id: None,
                    lines: line,
                    diagnostic: None,
                    cached: false,
                    attempts: 0,
                    store_key: None,
                }));
            }
            BatchItem::Job(spec) => {
                let key = spec.content_hash();
                if let Some(hit) = opts.cache.lookup(&key) {
                    slots.push(Some(Emission {
                        tag: Some(hit.outcome_tag),
                        id: Some(hit.id),
                        lines: hit.lines,
                        diagnostic: hit.diagnostic,
                        cached: true,
                        attempts: 0,
                        store_key: None,
                    }));
                } else {
                    slots.push(None);
                    work.push((slot, spec.clone(), key));
                }
            }
        }
    }

    let mut summary = BatchSummary::default();
    let mut next_emit = 0usize;

    let shards = opts.shards.max(1);
    let next_job = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, String, crate::supervisor::JobResult)>();
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: sharded worker pool; emission is re-ordered by slot, so completion order is unobservable"
    )]
    std::thread::scope(|scope| {
        for _ in 0..shards.min(work.len().max(1)) {
            let tx = tx.clone();
            let work = &work;
            let next_job = &next_job;
            scope.spawn(move || loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                let Some((slot, spec, key)) = work.get(i) else {
                    return;
                };
                let result = run_job(spec);
                if tx.send((*slot, key.clone(), result)).is_err() {
                    return;
                }
            });
        }

        // Emit whatever is already decided (cache hits, spec errors) and
        // then interleave emission with result arrival.
        emit_ready(&mut slots, &mut next_emit, opts, sinks, &mut summary);
        for _ in 0..work.len() {
            let (slot, key, result) = rx.recv().expect("worker pool hung up early");
            let cacheable = result.outcome.cacheable();
            let block = JobBlock::new(&result.id, result.outcome, result.attempts, result.payload);
            slots[slot] = Some(Emission {
                tag: Some(block.outcome.tag().to_string()),
                id: Some(block.id),
                lines: block.lines,
                diagnostic: result.diagnostic,
                cached: false,
                attempts: result.attempts,
                store_key: (cacheable && opts.cache.enabled()).then_some(key),
            });
            emit_ready(&mut slots, &mut next_emit, opts, sinks, &mut summary);
        }
    });
    debug_assert_eq!(next_emit, slots.len());

    for slot in sinks.iter_mut() {
        slot.finish();
    }
    summary.sink_losses = sinks
        .iter()
        .map(|s| (s.sink.name().to_string(), s.emitted, s.lost))
        .collect();
    let mut line = summary.to_json();
    line.push('\n');
    for slot in sinks.iter_mut() {
        // The summary block itself is delivered outside the loss
        // accounting it reports (it cannot count itself).
        let _ = slot.sink.emit(&line);
        let _ = slot.sink.flush();
    }
    summary
}

/// Drain the contiguous done-prefix of the reorder buffer: deliver to
/// sinks, write dumps, store cache entries, update the summary.
fn emit_ready(
    slots: &mut [Option<Emission>],
    next_emit: &mut usize,
    opts: &EngineOptions,
    sinks: &mut [SinkSlot],
    summary: &mut BatchSummary,
) {
    while *next_emit < slots.len() {
        let Some(e) = slots[*next_emit].take() else {
            return;
        };
        *next_emit += 1;
        match &e.tag {
            None => summary.spec_errors += 1,
            Some(tag) => {
                summary.count(tag);
                summary.retries += u64::from(e.attempts.saturating_sub(1));
                if e.cached {
                    summary.cache_hits += 1;
                }
            }
        }
        if let (Some(diag), Some(id)) = (&e.diagnostic, &e.id) {
            if let Some(dir) = &opts.dump_dir {
                let name = if diag.contains("\"type\":\"paranoia_dump\"") {
                    paranoia_dump_name(id)
                } else {
                    dump_name(id)
                };
                if let Err(err) = std::fs::write(dir.join(&name), diag) {
                    eprintln!("gat-serve: dump {name}: {err}");
                }
            }
        }
        if let Some(key) = &e.store_key {
            let entry = CachedJob {
                id: e.id.clone().unwrap_or_default(),
                outcome_tag: e.tag.clone().unwrap_or_default(),
                lines: e.lines.clone(),
                diagnostic: e.diagnostic.clone(),
            };
            match opts.cache.store(key, &entry) {
                Ok(()) => summary.cache_stores += 1,
                Err(err) => eprintln!("gat-serve: cache store {key}: {err}"),
            }
        }
        for slot in sinks.iter_mut() {
            slot.deliver(&e.lines);
        }
    }
}
