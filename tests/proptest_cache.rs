//! Property tests: the set-associative cache against a reference model,
//! and MSHR bookkeeping invariants.

use gat::cache::{
    AccessKind, CacheConfig, MshrFile, MshrOutcome, ReplacementPolicy, SetAssocCache, Source,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// Reference LRU cache: per-set deque of tags, most-recent at the back.
struct RefLru {
    sets: u64,
    ways: usize,
    block: u64,
    data: HashMap<u64, VecDeque<u64>>,
}

impl RefLru {
    fn new(sets: u64, ways: usize, block: u64) -> Self {
        Self {
            sets,
            ways,
            block,
            data: HashMap::new(),
        }
    }

    fn set_of(&self, addr: u64) -> (u64, u64) {
        let b = addr / self.block;
        (b % self.sets, b)
    }

    fn access(&mut self, addr: u64) -> bool {
        let (s, tag) = self.set_of(addr);
        let set = self.data.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push_back(tag);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64) {
        let (s, tag) = self.set_of(addr);
        let ways = self.ways;
        let set = self.data.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
        } else if set.len() >= ways {
            set.pop_front();
        }
        set.push_back(tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Miss-then-fill LRU behaviour matches the reference model exactly.
    #[test]
    fn lru_matches_reference(ops in prop::collection::vec(0u64..4096, 1..400)) {
        // 8 sets x 4 ways x 64B blocks.
        let mut dut = SetAssocCache::new(CacheConfig::new("p", 8 * 4 * 64, 4, 1, ReplacementPolicy::Lru));
        let mut reference = RefLru::new(8, 4, 64);
        for op in ops {
            let addr = op * 16; // some aliasing across blocks
            let hit_dut = dut.access(addr, AccessKind::Read, Source::Cpu(0));
            let hit_ref = reference.access(addr);
            prop_assert_eq!(hit_dut, hit_ref, "divergence at addr {}", addr);
            if !hit_dut {
                dut.fill(addr, Source::Cpu(0), false);
                reference.fill(addr);
            }
        }
    }

    /// The cache never holds more valid lines than its capacity, and a
    /// filled block is always found by probe immediately afterwards.
    #[test]
    fn capacity_and_presence_invariants(
        addrs in prop::collection::vec(0u64..100_000, 1..300),
        srrip in any::<bool>(),
    ) {
        let policy = if srrip { ReplacementPolicy::Srrip } else { ReplacementPolicy::Lru };
        let mut c = SetAssocCache::new(CacheConfig::new("p", 4096, 4, 1, policy));
        let capacity = 4096 / 64;
        for a in addrs {
            let addr = a * 8;
            c.fill(addr, Source::Gpu, a % 3 == 0);
            prop_assert!(c.probe(addr), "freshly filled block must be present");
            prop_assert!(c.count_lines_where(|_, _| true) <= capacity);
        }
    }

    /// Every eviction reported by fill was previously present, and its
    /// dirty flag matches the writes we performed.
    #[test]
    fn evictions_are_accounted(writes in prop::collection::vec((0u64..512, any::<bool>()), 1..300)) {
        let mut c = SetAssocCache::new(CacheConfig::new("p", 2048, 2, 1, ReplacementPolicy::Lru));
        let mut dirty_blocks: HashSet<u64> = HashSet::new();
        let mut present: HashSet<u64> = HashSet::new();
        for (a, write) in writes {
            let addr = a * 64;
            if c.probe(addr) {
                if write {
                    c.access(addr, AccessKind::Write, Source::Cpu(0));
                    dirty_blocks.insert(addr);
                }
                continue;
            }
            let ev = c.fill(addr, Source::Cpu(0), write);
            present.insert(addr);
            if write {
                dirty_blocks.insert(addr);
            }
            if let Some(ev) = ev {
                prop_assert!(present.remove(&ev.addr), "victim {} not present", ev.addr);
                prop_assert_eq!(ev.dirty, dirty_blocks.remove(&ev.addr),
                    "dirty flag mismatch for {}", ev.addr);
            }
        }
    }

    /// MSHR: merge order is preserved, occupancy never exceeds capacity,
    /// completions return exactly the allocated waiters.
    #[test]
    fn mshr_invariants(ops in prop::collection::vec((0u64..16, any::<bool>()), 1..200)) {
        let mut m = MshrFile::new(4, 4);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut token = 0u64;
        for (block, complete) in ops {
            if complete {
                let mut got = Vec::new();
                m.complete_into(block, &mut got);
                let want = model.remove(&block).unwrap_or_default();
                prop_assert_eq!(got, want);
            } else {
                token += 1;
                match m.allocate(block, token) {
                    MshrOutcome::Primary => {
                        prop_assert!(!model.contains_key(&block));
                        model.insert(block, vec![token]);
                    }
                    MshrOutcome::Merged => {
                        model.get_mut(&block).unwrap().push(token);
                    }
                    MshrOutcome::Full => {
                        let full_entry = model.get(&block).map(|v| v.len() >= 4).unwrap_or(false);
                        prop_assert!(full_entry || model.len() >= 4);
                    }
                }
            }
            prop_assert!(m.occupancy() <= 4);
            prop_assert_eq!(m.occupancy(), model.len());
        }
    }
}
