//! The GPU's internal cache hierarchy (Table I).
//!
//! Units and their caches, as the pipeline sees them:
//!
//! * texture samplers → shared L1 (64 KB, 16-way) → shared L2 (384 KB,
//!   48-way) → LLC. The tiny 2 KB per-sampler L0s are folded into the L1
//!   (their hits come from intra-quad locality, which the group
//!   granularity already captures),
//! * ROP depth test → depth L2 (32 KB, 32-way) → LLC (fetch on miss; the
//!   per-ROP 2 KB L1s are folded in likewise),
//! * ROP color write → color L2 (32 KB, 32-way): lines are created fully
//!   dirty *without* a fetch and written to the LLC on eviction (paper
//!   footnote 6),
//! * vertex fetch → vertex cache (16 KB, fully associative) → LLC.
//!
//! Each read path owns an MSHR file; outbound traffic (misses and dirty
//! evictions) is pushed into the GPU memory interface queue by the
//! pipeline. All GPU fills are tagged [`Source::Gpu`] so the LLC can apply
//! its non-inclusive GPU policy and the bypass/throttling proposals.

use gat_cache::{
    AccessKind, CacheConfig, MshrFile, MshrOutcome, ReplacementPolicy, SetAssocCache, Source,
};
use gat_sim::addr::line_of;

/// Which unit a miss belongs to; encoded into interface tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuUnit {
    Texture,
    Depth,
    Color,
    Vertex,
    /// Hierarchical-Z: coarse per-tile depth for early rejection.
    HierZ,
    /// Shader instruction fetch.
    ShaderI,
}

impl GpuUnit {
    pub fn encode(self) -> u64 {
        match self {
            GpuUnit::Texture => 0,
            GpuUnit::Depth => 1,
            GpuUnit::Color => 2,
            GpuUnit::Vertex => 3,
            GpuUnit::HierZ => 4,
            GpuUnit::ShaderI => 5,
        }
    }

    pub fn decode(v: u64) -> Self {
        match v {
            0 => GpuUnit::Texture,
            1 => GpuUnit::Depth,
            2 => GpuUnit::Color,
            3 => GpuUnit::Vertex,
            4 => GpuUnit::HierZ,
            _ => GpuUnit::ShaderI,
        }
    }
}

/// Geometry knobs (defaults = Table I).
#[derive(Debug, Clone)]
pub struct GpuCachesConfig {
    pub tex_l1_bytes: u64,
    pub tex_l1_ways: u32,
    pub tex_l2_bytes: u64,
    pub tex_l2_ways: u32,
    pub depth_l2_bytes: u64,
    pub depth_l2_ways: u32,
    pub color_l2_bytes: u64,
    pub color_l2_ways: u32,
    pub vertex_bytes: u64,
    pub hiz_bytes: u64,
    pub hiz_ways: u32,
    pub shader_i_bytes: u64,
    pub shader_i_ways: u32,
    pub tex_mshrs: usize,
    pub depth_mshrs: usize,
    pub vertex_mshrs: usize,
}

impl Default for GpuCachesConfig {
    fn default() -> Self {
        Self {
            tex_l1_bytes: 64 << 10,
            tex_l1_ways: 16,
            tex_l2_bytes: 384 << 10,
            tex_l2_ways: 48,
            depth_l2_bytes: 32 << 10,
            depth_l2_ways: 32,
            color_l2_bytes: 32 << 10,
            color_l2_ways: 32,
            vertex_bytes: 16 << 10,
            hiz_bytes: 16 << 10,
            hiz_ways: 16,
            shader_i_bytes: 32 << 10,
            shader_i_ways: 8,
            tex_mshrs: 64,
            depth_mshrs: 32,
            vertex_mshrs: 8,
        }
    }
}

/// Result of a read presented to a GPU cache path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuReadOutcome {
    Hit,
    /// Miss forwarded below (the pipeline enqueued an interface request)
    /// or merged onto an outstanding one; the waiter will be called back.
    Pending,
    /// MSHR full; retry.
    Stall,
}

/// A request the caches want sent to the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutboundReq {
    pub unit: GpuUnit,
    pub addr: u64,
    pub write: bool,
}

/// The GPU-internal cache complex.
pub struct GpuCaches {
    pub tex_l1: SetAssocCache,
    pub tex_l2: SetAssocCache,
    pub depth_l2: SetAssocCache,
    pub color_l2: SetAssocCache,
    pub vertex: SetAssocCache,
    pub hiz: SetAssocCache,
    pub shader_i: SetAssocCache,
    tex_mshr: MshrFile,
    depth_mshr: MshrFile,
    vertex_mshr: MshrFile,
    /// Misses/evictions waiting to enter the GPU memory interface.
    pub outbound: std::collections::VecDeque<OutboundReq>,
    /// Block of the last texture read that found the MSHR file full.
    /// Until a fill or a read of another block, a retry of it misses
    /// texL1 and texL2 and stalls again, so [`Self::tex_read`] replays
    /// those counters instead of the lookups (DESIGN.md §11).
    tex_stalled: Option<u64>,
}

impl GpuCaches {
    pub fn new(cfg: &GpuCachesConfig) -> Self {
        let lru = ReplacementPolicy::Lru;
        Self {
            tex_l1: SetAssocCache::new(CacheConfig::new(
                "texL1",
                cfg.tex_l1_bytes,
                cfg.tex_l1_ways,
                2,
                lru,
            )),
            tex_l2: SetAssocCache::new(CacheConfig::new(
                "texL2",
                cfg.tex_l2_bytes,
                cfg.tex_l2_ways,
                4,
                lru,
            )),
            depth_l2: SetAssocCache::new(CacheConfig::new(
                "depthL2",
                cfg.depth_l2_bytes,
                cfg.depth_l2_ways,
                2,
                lru,
            )),
            color_l2: SetAssocCache::new(CacheConfig::new(
                "colorL2",
                cfg.color_l2_bytes,
                cfg.color_l2_ways,
                2,
                lru,
            )),
            vertex: SetAssocCache::new(CacheConfig::fully_associative(
                "vtx",
                cfg.vertex_bytes,
                64,
                2,
                lru,
            )),
            hiz: SetAssocCache::new(CacheConfig::new("hiZ", cfg.hiz_bytes, cfg.hiz_ways, 1, lru)),
            shader_i: SetAssocCache::new(CacheConfig::new(
                "shaderI",
                cfg.shader_i_bytes,
                cfg.shader_i_ways,
                1,
                lru,
            )),
            tex_mshr: MshrFile::new(cfg.tex_mshrs, 16),
            depth_mshr: MshrFile::new(cfg.depth_mshrs, 16),
            vertex_mshr: MshrFile::new(cfg.vertex_mshrs, 8),
            outbound: std::collections::VecDeque::new(),
            tex_stalled: None,
        }
    }

    /// Texture read for `waiter` (a fragment-group id).
    pub fn tex_read(&mut self, addr: u64, waiter: u64) -> GpuReadOutcome {
        let src = Source::Gpu;
        let block = line_of(addr);
        if self.tex_stalled == Some(block) {
            self.tex_l1.replay_misses(addr, src, 1);
            self.tex_l2.replay_misses(addr, src, 1);
            self.tex_mshr.replay_stalls(1);
            return GpuReadOutcome::Stall;
        }
        self.tex_stalled = None;
        if self.tex_l1.access(addr, AccessKind::Read, src) {
            return GpuReadOutcome::Hit;
        }
        if self.tex_l2.access(addr, AccessKind::Read, src) {
            self.tex_l1.fill(addr, src, false); // texture data is read-only
            return GpuReadOutcome::Hit;
        }
        match self.tex_mshr.allocate(block, waiter) {
            MshrOutcome::Primary => {
                self.outbound.push_back(OutboundReq {
                    unit: GpuUnit::Texture,
                    addr: block,
                    write: false,
                });
                GpuReadOutcome::Pending
            }
            MshrOutcome::Merged => GpuReadOutcome::Pending,
            MshrOutcome::Full => {
                self.tex_stalled = Some(block);
                GpuReadOutcome::Stall
            }
        }
    }

    /// Paranoia check of the texture stall memo: its block must still
    /// miss texL1 and texL2 and still find no room in the MSHR file.
    pub(crate) fn check_tex_memo(&self) -> Result<(), String> {
        let Some(block) = self.tex_stalled else {
            return Ok(());
        };
        if self.tex_l1.probe(block) || self.tex_l2.probe(block) {
            return Err(format!("tex stall memo {block:#x} now hits texL1/texL2"));
        }
        if self.tex_mshr.can_allocate(block) {
            return Err(format!("tex stall memo {block:#x} but the MSHR has room"));
        }
        Ok(())
    }

    /// Depth-test read (the block is also dirtied by the depth write).
    pub fn depth_read(&mut self, addr: u64, waiter: u64) -> GpuReadOutcome {
        let src = Source::Gpu;
        if self.depth_l2.access(addr, AccessKind::Write, src) {
            return GpuReadOutcome::Hit;
        }
        match self.depth_mshr.allocate(line_of(addr), waiter) {
            MshrOutcome::Primary => {
                self.outbound.push_back(OutboundReq {
                    unit: GpuUnit::Depth,
                    addr: line_of(addr),
                    write: false,
                });
                GpuReadOutcome::Pending
            }
            MshrOutcome::Merged => GpuReadOutcome::Pending,
            MshrOutcome::Full => GpuReadOutcome::Stall,
        }
    }

    /// Color write: allocate the line fully dirty without fetching
    /// (footnote 6). Never blocks the fragment; dirty victims flow to the
    /// LLC as writes.
    pub fn color_write(&mut self, addr: u64) {
        let src = Source::Gpu;
        if self.color_l2.access(addr, AccessKind::Write, src) {
            return;
        }
        if let Some(ev) = self.color_l2.fill(addr, src, true) {
            if ev.dirty {
                self.outbound.push_back(OutboundReq {
                    unit: GpuUnit::Color,
                    addr: ev.addr,
                    write: true,
                });
            }
        }
    }

    /// Hierarchical-Z coarse depth read at tile start (posted). The line
    /// is dirtied by the coarse-depth update.
    pub fn hiz_read(&mut self, addr: u64) {
        let src = Source::Gpu;
        if self.hiz.access(addr, AccessKind::Write, src) {
            return;
        }
        // Coarse depth is regenerated per frame; like the color path it
        // allocates without a fetch and flushes dirty victims to the LLC.
        if let Some(ev) = self.hiz.fill(addr, src, true) {
            if ev.dirty {
                self.outbound.push_back(OutboundReq {
                    unit: GpuUnit::HierZ,
                    addr: ev.addr,
                    write: true,
                });
            }
        }
    }

    /// Shader instruction fetch at RTP start (posted read; a miss fetches
    /// the program block from the LLC).
    pub fn shader_i_read(&mut self, addr: u64) {
        let src = Source::Gpu;
        if self.shader_i.access(addr, AccessKind::Read, src) {
            return;
        }
        self.shader_i.fill(addr, src, false);
        self.outbound.push_back(OutboundReq {
            unit: GpuUnit::ShaderI,
            addr: line_of(addr),
            write: false,
        });
    }

    /// Vertex fetch (posted: traffic matters, nobody waits).
    pub fn vertex_read(&mut self, addr: u64) -> GpuReadOutcome {
        let src = Source::Gpu;
        if self.vertex.access(addr, AccessKind::Read, src) {
            return GpuReadOutcome::Hit;
        }
        match self.vertex_mshr.allocate(line_of(addr), 0) {
            MshrOutcome::Primary => {
                self.outbound.push_back(OutboundReq {
                    unit: GpuUnit::Vertex,
                    addr: line_of(addr),
                    write: false,
                });
                GpuReadOutcome::Pending
            }
            MshrOutcome::Merged => GpuReadOutcome::Pending,
            MshrOutcome::Full => GpuReadOutcome::Stall,
        }
    }

    /// A read issued below for (`unit`, block) returned; fills the caches
    /// and appends the waiting group ids to `out` (allocation-free: MSHR
    /// waiter storage is recycled, the caller reuses its scratch vector).
    pub fn on_fill(&mut self, unit: GpuUnit, block: u64, out: &mut Vec<u64>) {
        let src = Source::Gpu;
        self.tex_stalled = None;
        match unit {
            GpuUnit::Texture => {
                self.tex_mshr.complete_into(block, out);
                self.tex_l2.fill(block, src, false);
                self.tex_l1.fill(block, src, false);
            }
            GpuUnit::Depth => {
                self.depth_mshr.complete_into(block, out);
                if let Some(ev) = self.depth_l2.fill(block, src, true) {
                    if ev.dirty {
                        self.outbound.push_back(OutboundReq {
                            unit: GpuUnit::Depth,
                            addr: ev.addr,
                            write: true,
                        });
                    }
                }
            }
            GpuUnit::Vertex => {
                self.vertex_mshr.complete_into(block, out);
                self.vertex.fill(block, src, false);
            }
            // Color never reads; HiZ allocates locally; shader-I fills are
            // posted (already installed optimistically above).
            GpuUnit::Color | GpuUnit::HierZ | GpuUnit::ShaderI => {}
        }
    }

    /// Total read misses outstanding across units (occupied MSHRs) —
    /// the "GPU resources … occupied" while throttled (§III-B).
    pub fn outstanding(&self) -> usize {
        self.tex_mshr.occupancy() + self.depth_mshr.occupancy() + self.vertex_mshr.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect `on_fill` waiters into a fresh vector (test convenience).
    fn fill(c: &mut GpuCaches, unit: GpuUnit, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        c.on_fill(unit, block, &mut out);
        out
    }

    #[test]
    fn unit_encoding_round_trips() {
        for u in [
            GpuUnit::Texture,
            GpuUnit::Depth,
            GpuUnit::Color,
            GpuUnit::Vertex,
            GpuUnit::HierZ,
            GpuUnit::ShaderI,
        ] {
            assert_eq!(GpuUnit::decode(u.encode()), u);
        }
    }

    #[test]
    fn hiz_allocates_dirty_without_fetch_and_flushes() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        // Fill the 16 KB hiZ (256 lines), then overflow it.
        for i in 0..512u64 {
            c.hiz_read(i * 64);
        }
        assert!(c.outbound.iter().all(|r| r.write), "hiZ never reads below");
        let flushed = c
            .outbound
            .iter()
            .filter(|r| r.unit == GpuUnit::HierZ)
            .count();
        assert_eq!(flushed, 256, "every eviction writes back");
    }

    #[test]
    fn shader_icache_fetches_once_per_program_block() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        c.shader_i_read(0x100);
        c.shader_i_read(0x100);
        c.shader_i_read(0x120); // same 64B block
        let fetches = c
            .outbound
            .iter()
            .filter(|r| r.unit == GpuUnit::ShaderI)
            .count();
        assert_eq!(fetches, 1, "program block fetched once");
    }

    #[test]
    fn tex_miss_goes_outbound_then_hits() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        assert_eq!(c.tex_read(0x1000, 7), GpuReadOutcome::Pending);
        assert_eq!(c.outbound.len(), 1);
        assert_eq!(c.outbound[0].unit, GpuUnit::Texture);
        assert!(!c.outbound[0].write);
        let waiters = fill(&mut c, GpuUnit::Texture, 0x1000);
        assert_eq!(waiters, vec![7]);
        assert_eq!(c.tex_read(0x1008, 8), GpuReadOutcome::Hit);
    }

    #[test]
    fn tex_merge_same_block() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        c.tex_read(0x2000, 1);
        assert_eq!(c.tex_read(0x2010, 2), GpuReadOutcome::Pending);
        assert_eq!(c.outbound.len(), 1, "merged, no second outbound");
        assert_eq!(fill(&mut c, GpuUnit::Texture, 0x2000), vec![1, 2]);
    }

    #[test]
    fn tex_l2_hit_refills_l1() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        c.tex_read(0x0, 1);
        fill(&mut c, GpuUnit::Texture, 0x0);
        // Push the block out of the 64-set L1 with 16 conflicting fills
        // (L1: 64KB/16w/64B = 64 sets → stride 4096 conflicts).
        for i in 1..=16u64 {
            let a = i * 4096;
            c.tex_read(a, 1);
            fill(&mut c, GpuUnit::Texture, a);
        }
        assert!(!c.tex_l1.probe(0x0));
        assert!(c.tex_l2.probe(0x0));
        assert_eq!(c.tex_read(0x0, 2), GpuReadOutcome::Hit);
        assert!(c.tex_l1.probe(0x0), "refilled into L1");
    }

    #[test]
    fn color_writes_never_fetch_and_evict_dirty() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        // Fill the whole 32KB color cache with dirty lines.
        for i in 0..512u64 {
            c.color_write(i * 64);
        }
        assert!(c
            .outbound
            .iter()
            .all(|r| r.write || r.unit != GpuUnit::Color));
        assert_eq!(c.outbound.len(), 0, "no traffic while the surface fits");
        // One more row of writes forces dirty evictions.
        for i in 512..1024u64 {
            c.color_write(i * 64);
        }
        let writes = c
            .outbound
            .iter()
            .filter(|r| r.write && r.unit == GpuUnit::Color)
            .count();
        assert_eq!(writes, 512, "every eviction is a dirty write-back");
        // And no color read was ever generated.
        assert!(c.outbound.iter().all(|r| r.write));
    }

    #[test]
    fn depth_read_fills_dirty_and_writes_back() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        assert_eq!(c.depth_read(0x100, 3), GpuReadOutcome::Pending);
        assert_eq!(fill(&mut c, GpuUnit::Depth, 0x100), vec![3]);
        assert_eq!(c.depth_read(0x100, 4), GpuReadOutcome::Hit);
        // Evict it via conflicting fills; the line was dirtied by the
        // depth write, so a write-back must appear.
        c.outbound.clear();
        for i in 1..=32u64 {
            let a = 0x100 + i * 1024; // 32KB/32w/64B = 16 sets → stride 1KB
            c.depth_read(a, 5);
            fill(&mut c, GpuUnit::Depth, a);
        }
        assert!(
            c.outbound
                .iter()
                .any(|r| r.write && r.unit == GpuUnit::Depth),
            "dirty depth eviction must write back"
        );
    }

    #[test]
    fn mshr_full_reports_stall() {
        let cfg = GpuCachesConfig {
            tex_mshrs: 2,
            ..Default::default()
        };
        let mut c = GpuCaches::new(&cfg);
        assert_eq!(c.tex_read(0x0000, 1), GpuReadOutcome::Pending);
        assert_eq!(c.tex_read(0x1000, 2), GpuReadOutcome::Pending);
        assert_eq!(c.tex_read(0x2000, 3), GpuReadOutcome::Stall);
        assert_eq!(c.outstanding(), 2);
    }

    #[test]
    fn stalled_tex_retry_replays_until_a_fill() {
        let cfg = GpuCachesConfig {
            tex_mshrs: 2,
            ..Default::default()
        };
        let mut c = GpuCaches::new(&cfg);
        let counters = |c: &GpuCaches| {
            let (l1, l2) = (&c.tex_l1.stats, &c.tex_l2.stats);
            [
                l1.misses.get(),
                l1.gpu_misses.get(),
                l1.hits.get(),
                l2.misses.get(),
                l2.gpu_misses.get(),
                l2.hits.get(),
                c.tex_mshr.stall_count(),
            ]
        };
        c.tex_read(0x0000, 1);
        c.tex_read(0x1000, 2);
        let c0 = counters(&c);
        assert_eq!(c.tex_read(0x2000, 3), GpuReadOutcome::Stall);
        let c1 = counters(&c);
        assert_eq!(c.tex_read(0x2010, 3), GpuReadOutcome::Stall, "memoized");
        let c2 = counters(&c);
        let d = |a: [u64; 7], b: [u64; 7]| -> [u64; 7] { std::array::from_fn(|i| b[i] - a[i]) };
        assert_eq!(d(c0, c1), [1, 1, 0, 1, 1, 0, 1]);
        assert_eq!(d(c1, c2), d(c0, c1), "the retry replays the real stall");
        assert!(c.check_tex_memo().is_ok());
        assert_eq!(fill(&mut c, GpuUnit::Texture, 0x0000), vec![1]);
        assert_eq!(
            c.tex_read(0x2000, 3),
            GpuReadOutcome::Pending,
            "the fill freed a slot"
        );
        assert_eq!(c.outbound.back().map(|r| r.addr), Some(0x2000));
    }

    #[test]
    fn vertex_reads_are_posted() {
        let mut c = GpuCaches::new(&GpuCachesConfig::default());
        assert_eq!(c.vertex_read(0x9000), GpuReadOutcome::Pending);
        assert_eq!(fill(&mut c, GpuUnit::Vertex, 0x9000), vec![0]);
        assert_eq!(c.vertex_read(0x9000), GpuReadOutcome::Hit);
    }
}
