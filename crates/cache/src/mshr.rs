//! Miss-status holding registers (MSHRs).
//!
//! Each cache level owns an [`MshrFile`] bounding how many distinct block
//! misses can be outstanding below it, with secondary misses to the same
//! block merged onto the primary. Two behaviours in the paper hinge on
//! this structure:
//!
//! * CPU memory-level parallelism: the core keeps issuing until its L1/L2
//!   MSHRs fill, which is what makes IPC sensitive to LLC/DRAM latency.
//! * Throttling back-pressure (paper §III-B): "when the GPU requests are
//!   denied access to the LLC, they are held back inside the GPU and occupy
//!   GPU resources such as request buffers and MSHRs attached to the caches
//!   internal to the GPU" — the GPU pipeline stalls exactly when these fill.

/// Result of trying to allocate an MSHR for a missed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this block: the caller must forward the request to the
    /// next level.
    Primary,
    /// Another miss to the same block is already in flight; this requester
    /// was queued on it and must simply wait.
    Merged,
    /// Structural stall: no free entry (or the entry's waiter list is
    /// full). The caller must retry later; nothing was recorded.
    Full,
}

/// Empty slot sentinel in the open-addressing index.
const EMPTY: u32 = u32::MAX;

/// A bounded file of MSHR entries with same-block merging.
///
/// Laid out as a fixed slab plus a tiny open-addressing index rather
/// than a general hash map: each entry owns a fixed-stride chunk of one
/// flat waiter-token array, and a power-of-two probe table (linear
/// probing, backward-shift deletion, ≤ 50% load) maps block → entry
/// slot. The allocate/merge/complete steady state therefore touches no
/// general-purpose hasher and no heap — this is the hottest structure
/// after the cache tag arrays.
#[derive(Debug)]
pub struct MshrFile {
    capacity: usize,
    max_waiters: usize,
    /// Open-addressing block→slot index; `EMPTY` marks a free position.
    idx: Vec<u32>,
    /// `64 - log2(idx.len())`: the multiply-shift hash keeps the high bits.
    shift: u32,
    /// Per entry slot: the block key (valid while the slot is live).
    blk: Vec<u64>,
    /// Live waiter count per entry slot.
    wlen: Vec<u32>,
    /// Flat waiter storage: `capacity` chunks of `max_waiters` tokens.
    waiters: Vec<u64>,
    /// Free entry slots, reused LIFO.
    free: Vec<u32>,
    /// Live entries.
    len: usize,
    /// High-water mark of simultaneously live entries.
    peak: usize,
    stalls: u64,
    merges: u64,
}

impl MshrFile {
    /// `capacity` distinct outstanding blocks, each with up to
    /// `max_waiters` queued requesters (including the primary).
    pub fn new(capacity: usize, max_waiters: usize) -> Self {
        assert!(capacity > 0 && max_waiters > 0);
        let table = (capacity * 2).next_power_of_two();
        Self {
            capacity,
            max_waiters,
            idx: vec![EMPTY; table],
            shift: 64 - table.trailing_zeros(),
            blk: vec![0; capacity],
            wlen: vec![0; capacity],
            waiters: vec![0; capacity * max_waiters],
            free: (0..capacity as u32).rev().collect(),
            len: 0,
            peak: 0,
            stalls: 0,
            merges: 0,
        }
    }

    /// Fibonacci multiply-shift start position for `block`'s probe chain.
    #[inline(always)]
    fn hash(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Locate `block`: `(probe position, entry slot)` if live.
    #[inline(always)]
    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let mask = self.idx.len() - 1;
        let mut p = self.hash(block);
        loop {
            let s = self.idx[p];
            if s == EMPTY {
                return None;
            }
            if self.blk[s as usize] == block {
                return Some((p, s as usize));
            }
            p = (p + 1) & mask;
        }
    }

    /// Attempt to record a miss on `block` for requester `token`.
    pub fn allocate(&mut self, block: u64, token: u64) -> MshrOutcome {
        if let Some((_, s)) = self.find(block) {
            let n = self.wlen[s] as usize;
            if n >= self.max_waiters {
                self.stalls += 1;
                return MshrOutcome::Full;
            }
            self.waiters[s * self.max_waiters + n] = token;
            self.wlen[s] = (n + 1) as u32;
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.len >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        let s = self.free.pop().expect("free slot under capacity") as usize;
        self.blk[s] = block;
        self.wlen[s] = 1;
        self.waiters[s * self.max_waiters] = token;
        let mask = self.idx.len() - 1;
        let mut p = self.hash(block);
        while self.idx[p] != EMPTY {
            p = (p + 1) & mask;
        }
        self.idx[p] = s as u32;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        MshrOutcome::Primary
    }

    /// Would [`Self::allocate`] for `block` record the miss rather than
    /// return [`MshrOutcome::Full`]? Changes nothing.
    pub fn can_allocate(&self, block: u64) -> bool {
        match self.find(block) {
            Some((_, s)) => (self.wlen[s] as usize) < self.max_waiters,
            None => self.len < self.capacity,
        }
    }

    /// Standard linear-probing deletion at probe position `i`: walk the
    /// cluster, backward-shifting entries whose home position would
    /// otherwise become unreachable, then empty the final hole.
    fn remove_probe(&mut self, mut i: usize) {
        let mask = self.idx.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.idx[j];
            if s == EMPTY {
                break;
            }
            let h = self.hash(self.blk[s as usize]);
            // `h` cyclically inside `(i, j]` means the entry still sits on
            // its own probe chain if the hole moves to `j`.
            let reachable = if i <= j {
                h > i && h <= j
            } else {
                h > i || h <= j
            };
            if !reachable {
                self.idx[i] = s;
                i = j;
            }
        }
        self.idx[i] = EMPTY;
    }

    /// Release the entry at `(probe, slot)`; waiter tokens stay readable
    /// until the slot is reused.
    fn release(&mut self, p: usize, s: usize) {
        self.remove_probe(p);
        self.free.push(s as u32);
        self.len -= 1;
    }

    /// The data for `block` returned: free the entry, append every queued
    /// requester token to `out` (primary first, then merge order) and
    /// recycle the entry's storage. Appends nothing for an unknown block.
    pub fn complete_into(&mut self, block: u64, out: &mut Vec<u64>) {
        if let Some((p, s)) = self.find(block) {
            let base = s * self.max_waiters;
            out.extend_from_slice(&self.waiters[base..base + self.wlen[s] as usize]);
            self.wlen[s] = 0;
            self.release(p, s);
        }
    }

    /// Drop the entry for `block` without reading its waiters (allocation
    /// rollback), recycling the storage.
    pub fn cancel(&mut self, block: u64) {
        if let Some((p, s)) = self.find(block) {
            self.wlen[s] = 0;
            self.release(p, s);
        }
    }

    /// Is a miss to `block` already outstanding?
    pub fn contains(&self, block: u64) -> bool {
        self.find(block).is_some()
    }

    /// Currently live entries.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// True when no new primary miss can be accepted.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    pub fn stall_count(&self) -> u64 {
        self.stalls
    }

    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Drop all state (between simulation phases).
    pub fn clear(&mut self) {
        self.idx.fill(EMPTY);
        self.wlen.fill(0);
        self.free.clear();
        self.free.extend((0..self.capacity as u32).rev());
        self.len = 0;
    }

    /// Paranoia-mode invariant check: structural bounds that the
    /// allocate/complete protocol guarantees. A violation means an MSHR
    /// leak or corrupted waiter/index bookkeeping.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.len > self.capacity {
            return Err(format!(
                "MSHR overflow: {} entries live with capacity {}",
                self.len, self.capacity
            ));
        }
        if self.len + self.free.len() != self.capacity {
            return Err(format!(
                "MSHR slot leak: {} live + {} free != capacity {}",
                self.len,
                self.free.len(),
                self.capacity
            ));
        }
        let mut indexed = 0usize;
        for &s in &self.idx {
            if s == EMPTY {
                continue;
            }
            indexed += 1;
            let s = s as usize;
            let block = self.blk[s];
            let n = self.wlen[s] as usize;
            if n == 0 {
                return Err(format!("MSHR entry for block {block:#x} has no waiters"));
            }
            if n > self.max_waiters {
                return Err(format!(
                    "MSHR entry for block {block:#x} holds {n} waiters (bound {})",
                    self.max_waiters
                ));
            }
            if self.find(block).map(|(_, fs)| fs) != Some(s) {
                return Err(format!(
                    "MSHR index corrupt: block {block:#x} not reachable from its probe chain"
                ));
            }
        }
        if indexed != self.len {
            return Err(format!(
                "MSHR index desync: {indexed} indexed entries, {} live",
                self.len
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge_then_complete() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.allocate(100, 1), MshrOutcome::Primary);
        assert_eq!(m.allocate(100, 2), MshrOutcome::Merged);
        assert_eq!(m.allocate(100, 3), MshrOutcome::Merged);
        assert!(m.contains(100));
        assert_eq!(m.occupancy(), 1);
        let mut out = Vec::new();
        m.complete_into(100, &mut out);
        assert_eq!(out, [1, 2, 3]);
        assert!(!m.contains(100));
        assert_eq!(m.merge_count(), 2);
    }

    #[test]
    fn capacity_limits_distinct_blocks() {
        let mut m = MshrFile::new(2, 8);
        assert_eq!(m.allocate(1, 10), MshrOutcome::Primary);
        assert_eq!(m.allocate(2, 11), MshrOutcome::Primary);
        assert!(m.is_full());
        assert_eq!(m.allocate(3, 12), MshrOutcome::Full);
        // Merging into an existing entry still works at capacity.
        assert_eq!(m.allocate(1, 13), MshrOutcome::Merged);
        assert_eq!(m.stall_count(), 1);
        m.complete_into(1, &mut Vec::new());
        assert_eq!(m.allocate(3, 12), MshrOutcome::Primary);
    }

    #[test]
    fn waiter_list_bound() {
        let mut m = MshrFile::new(4, 2);
        assert_eq!(m.allocate(9, 0), MshrOutcome::Primary);
        assert_eq!(m.allocate(9, 1), MshrOutcome::Merged);
        assert_eq!(m.allocate(9, 2), MshrOutcome::Full);
    }

    #[test]
    fn can_allocate_agrees_with_allocate() {
        let mut m = MshrFile::new(2, 2);
        assert!(m.can_allocate(1));
        m.allocate(1, 10);
        assert!(m.can_allocate(1), "room to merge");
        m.allocate(1, 11);
        assert!(!m.can_allocate(1), "waiter list full");
        assert!(m.can_allocate(2));
        m.allocate(2, 12);
        assert!(!m.can_allocate(3), "no free entry");
        assert_eq!(m.allocate(3, 13), MshrOutcome::Full);
        assert_eq!(m.stall_count(), 1, "the probe recorded no stall");
        m.complete_into(1, &mut Vec::new());
        assert!(m.can_allocate(1) && m.can_allocate(3));
    }

    #[test]
    fn complete_unknown_block_is_empty() {
        let mut m = MshrFile::new(2, 2);
        let mut out = Vec::new();
        m.complete_into(42, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m = MshrFile::new(8, 2);
        for b in 0..5 {
            m.allocate(b, b);
        }
        for b in 0..5 {
            m.complete_into(b, &mut Vec::new());
        }
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.peak_occupancy(), 5);
    }

    #[test]
    fn invariants_hold_through_the_protocol() {
        let mut m = MshrFile::new(2, 2);
        m.check_invariants().unwrap();
        m.allocate(1, 10);
        m.allocate(1, 11);
        m.allocate(2, 12);
        m.allocate(3, 13); // Full: rejected, nothing recorded
        m.check_invariants().unwrap();
        m.complete_into(1, &mut Vec::new());
        m.cancel(2);
        m.check_invariants().unwrap();
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn clear_resets_entries() {
        let mut m = MshrFile::new(2, 2);
        m.allocate(1, 1);
        m.clear();
        assert_eq!(m.occupancy(), 0);
        assert!(!m.contains(1));
    }
}
