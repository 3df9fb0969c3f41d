//! The rendering pipeline: rasterizer → shader cores (+ texture samplers)
//! → ROPs, sequenced per frame into render-target planes (RTPs).
//!
//! Work granularity is the *fragment group* (a 2×2 quad by default): the
//! rasterizer emits groups tile by tile, each group issues its texture
//! reads, waits for them, occupies a shader context until shading
//! completes, then performs depth test + color write at the ROPs. Every
//! stage has a bounded queue and a bounded service rate, so memory stalls
//! back-propagate into frame time exactly as the paper's throttling
//! mechanism requires.
//!
//! The pipeline communicates with the LLC only through the GPU memory
//! interface: a single bounded queue drained each GPU cycle subject to a
//! `quota` imposed by the caller. The paper's access-throttling unit
//! implements Fig. 6 by modulating that quota; `quota = u32::MAX` is the
//! unthrottled baseline.

use crate::caches::{GpuCaches, GpuCachesConfig, GpuReadOutcome, GpuUnit, OutboundReq};
use crate::workload::{RtpPlan, WorkloadGen, TILE_PX};
use gat_cache::{BlockReq, MemPort};
use gat_sim::rng::SimRng;
use gat_sim::stats::{Counter, RunningStat};
use gat_sim::{Cycle, GPU_FREQ_HZ};
use std::collections::VecDeque;

/// Pipeline structural parameters (defaults approximate Table I's GPU:
/// 64 shader cores, 16 ROPs at 64 GPixel/s, 4096 thread contexts).
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Work scale (DESIGN.md §4): resolution shrinks by √scale; reported
    /// FPS is rescaled back.
    pub scale: u32,
    /// Fragments per group (quad).
    pub group_size: u32,
    /// Groups the rasterizer can emit per cycle.
    pub raster_rate: u32,
    /// In-flight fragment groups (thread contexts / group_size ≈ 4096/16).
    pub max_inflight: usize,
    /// Pipeline latency from "textures ready" to "shaded".
    pub shade_latency: u32,
    /// Groups the ROPs retire per cycle (16 px/cycle / group_size).
    pub rop_rate: u32,
    /// ROP input queue depth.
    pub rop_queue: usize,
    /// GPU memory-interface queue depth (the request buffer of Fig. 7).
    pub iface_queue: usize,
    /// Max interface sends to the LLC per GPU cycle (ignoring throttling).
    pub llc_ports: u32,
    /// Unified-shader vertex work per tile, in fragment-equivalents
    /// (Table I's unified shader model runs vertex and pixel shading on
    /// the same cores). 0 disables the vertex-shading stage; the Table II
    /// calibration folds vertex cost into `shade_rate`, so this is an
    /// opt-in refinement for studies that need the contention modeled
    /// explicitly.
    pub vertex_shade_cost: f64,
    pub caches: GpuCachesConfig,
    /// Base physical address of GPU surfaces.
    pub mem_base: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            scale: 16,
            group_size: 4,
            raster_rate: 4,
            max_inflight: 256,
            shade_latency: 24,
            rop_rate: 4,
            rop_queue: 64,
            iface_queue: 128,
            llc_ports: 4,
            vertex_shade_cost: 0.0,
            caches: GpuCachesConfig::default(),
            mem_base: 1 << 40,
        }
    }
}

/// Observable pipeline milestones; the frame-rate estimator consumes
/// these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuEvent {
    /// A render-target plane finished (all tiles covered once more).
    RtpComplete {
        frame: u32,
        rtp: u32,
        /// Render-target updates (fragments) in this RTP.
        updates: u64,
        /// GPU cycles from the previous RTP boundary.
        cycles: u64,
        /// Tiles in the RT.
        tiles: u32,
        /// GPU LLC accesses attributed to this RTP.
        llc_accesses: u64,
    },
    FrameComplete {
        frame: u32,
        /// GPU cycles for the whole frame.
        cycles: u64,
    },
}

/// Aggregate pipeline statistics.
#[derive(Debug, Default, Clone)]
pub struct GpuStats {
    pub frames: Counter,
    pub fragments: Counter,
    pub llc_reads_sent: Counter,
    pub llc_writes_sent: Counter,
    /// Cycles the interface wanted to send but the throttle quota was 0.
    pub gated_cycles: Counter,
    pub frame_cycles: RunningStat,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    Free,
    /// Still issuing its texture reads from the emit stage; must not be
    /// scheduled for shading yet even if early fills arrive.
    Emitting,
    /// Waiting on `tex_left` texture fills.
    WaitTex,
    ReadyShade,
    /// Shaded at the contained cycle.
    Shading(Cycle),
    RopQueued,
    WaitDepth,
}

#[derive(Debug, Clone, Copy)]
struct Group {
    state: GState,
    rtp: u32,
    tex_left: u16,
    depth_addr: u64,
    color_addr: u64,
}

const FREE_GROUP: Group = Group {
    state: GState::Free,
    rtp: 0,
    tex_left: 0,
    depth_addr: 0,
    color_addr: 0,
};

/// Per-RTP in-flight bookkeeping for the current frame.
#[derive(Debug, Clone, Default)]
struct RtpTrack {
    emitted: u64,
    done: u64,
    emit_finished: bool,
    reported: bool,
    updates: u64,
    llc_accesses: u64,
}

/// The GPU.
pub struct GpuPipeline {
    cfg: GpuConfig,
    workload: WorkloadGen,
    caches: GpuCaches,
    rng: SimRng,

    groups: Vec<Group>,
    free: Vec<u32>,
    inflight: usize,

    // Stage queues.
    emit_stage: VecDeque<(u32, Vec<u64>)>, // group id + texel addrs left
    /// Emptied texel buffers from retired `emit_stage` entries, reused by
    /// `texel_addrs` so emitting a group allocates nothing.
    spare_texels: Vec<Vec<u64>>,
    shade_ready: VecDeque<u32>,
    shading: VecDeque<u32>,
    rop_in: VecDeque<u32>,
    iface: VecDeque<OutboundReq>,
    /// Scratch for fill-completion waiter ids; kept empty between responses
    /// so the steady state allocates nothing.
    fill_waiters: Vec<u64>,
    shade_budget: f64,

    // Frame/RTP walking state.
    frame_plans: Vec<RtpPlan>,
    rtp_tracks: Vec<RtpTrack>,
    cur_rtp: u32,
    next_report_rtp: u32,
    tile_cursor: u32,
    groups_left_in_tile: u32,
    tiles: u32,
    frame_start: Cycle,
    last_rtp_boundary: Cycle,
    frame_index: u32,
    frames_budget: Option<u32>,

    // Surfaces.
    depth_base: u64,
    color_bases: [u64; 2],
    tex_base: u64,
    vertex_base: u64,
    vertex_cursor: u64,
    hiz_base: u64,
    shader_prog_base: u64,

    events: Vec<GpuEvent>,
    pub stats: GpuStats,
}

impl GpuPipeline {
    pub fn new(cfg: GpuConfig, workload: WorkloadGen, rng: SimRng) -> Self {
        let tiles = workload.profile().tiles(cfg.scale);
        let (tx, ty) = workload.profile().tile_grid(cfg.scale);
        let surface_bytes = u64::from(tx * TILE_PX) * u64::from(ty * TILE_PX) * 4;
        let depth_base = cfg.mem_base;
        let color0 = depth_base + surface_bytes;
        let color1 = color0 + surface_bytes;
        let tex_base = color1 + surface_bytes;
        let vertex_base = tex_base + workload.profile().tex_working_set;
        let hiz_base = vertex_base + (8 << 20);
        let shader_prog_base = hiz_base + (1 << 20);
        let caches = GpuCaches::new(&cfg.caches);
        let mut pl = Self {
            groups: vec![FREE_GROUP; cfg.max_inflight],
            free: (0..cfg.max_inflight as u32).rev().collect(),
            inflight: 0,
            emit_stage: VecDeque::new(),
            spare_texels: Vec::new(),
            shade_ready: VecDeque::new(),
            shading: VecDeque::new(),
            rop_in: VecDeque::new(),
            iface: VecDeque::new(),
            fill_waiters: Vec::new(),
            shade_budget: 0.0,
            frame_plans: Vec::new(),
            rtp_tracks: Vec::new(),
            cur_rtp: 0,
            next_report_rtp: 0,
            tile_cursor: 0,
            groups_left_in_tile: 0,
            tiles,
            frame_start: 0,
            last_rtp_boundary: 0,
            frame_index: 0,
            frames_budget: None,
            depth_base,
            color_bases: [color0, color1],
            tex_base,
            vertex_base,
            vertex_cursor: 0,
            hiz_base,
            shader_prog_base,
            events: Vec::new(),
            stats: GpuStats::default(),
            caches,
            rng,
            cfg,
            workload,
        };
        pl.begin_frame(0);
        pl
    }

    /// Limit the run to `n` frames; [`Self::done`] turns true after.
    pub fn set_frame_budget(&mut self, n: u32) {
        self.frames_budget = Some(n);
    }

    pub fn done(&self) -> bool {
        self.frames_budget
            .is_some_and(|n| self.stats.frames.get() >= u64::from(n))
    }

    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    pub fn tiles(&self) -> u32 {
        self.tiles
    }

    pub fn frame_index(&self) -> u32 {
        self.frame_index
    }

    /// Average FPS over all completed frames, rescaled to natural units.
    pub fn fps(&self) -> f64 {
        let mean = self.stats.frame_cycles.mean();
        if mean == 0.0 {
            return 0.0;
        }
        GPU_FREQ_HZ as f64 / (mean * f64::from(self.cfg.scale))
    }

    /// FPS of a single frame that took `cycles` GPU cycles.
    pub fn fps_of_cycles(&self, cycles: f64) -> f64 {
        if cycles <= 0.0 {
            return 0.0;
        }
        GPU_FREQ_HZ as f64 / (cycles * f64::from(self.cfg.scale))
    }

    /// Drain observed events.
    pub fn drain_events(&mut self, out: &mut Vec<GpuEvent>) {
        out.append(&mut self.events);
    }

    /// Requests waiting in the memory interface (for stats/tests).
    pub fn iface_occupancy(&self) -> usize {
        self.iface.len()
    }

    /// Paranoia-mode invariant check: fragment-group slot conservation
    /// and interface-queue bounds. A violation means groups leaked (the
    /// pipeline would eventually wedge) or the request buffer overran its
    /// modeled capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = self
            .groups
            .iter()
            .filter(|g| g.state != GState::Free)
            .count();
        if live != self.inflight {
            return Err(format!(
                "GPU group leak: {live} live groups but inflight counter {}",
                self.inflight
            ));
        }
        if self.inflight + self.free.len() != self.groups.len() {
            return Err(format!(
                "GPU group slots unbalanced: {} in flight + {} free != {} contexts",
                self.inflight,
                self.free.len(),
                self.groups.len()
            ));
        }
        // drain_iface may overfill by one emit burst beyond the modeled
        // queue; anything past that slack is a bookkeeping bug.
        let bound = self.cfg.iface_queue + 16;
        if self.iface.len() > bound {
            return Err(format!(
                "GPU interface queue holds {} requests (bound {bound})",
                self.iface.len()
            ));
        }
        Ok(())
    }

    /// Per-unit internal-cache statistics: (texL1 h/m, texL2 h/m,
    /// depth h/m, color h/m, vertex h/m) — misses are what reaches the
    /// LLC. For calibration reports.
    pub fn unit_stats(&self) -> [(u64, u64); 5] {
        let f = |c: &gat_cache::SetAssocCache| (c.stats.hits.get(), c.stats.misses.get());
        [
            f(&self.caches.tex_l1),
            f(&self.caches.tex_l2),
            f(&self.caches.depth_l2),
            f(&self.caches.color_l2),
            f(&self.caches.vertex),
        ]
    }

    /// Latency tolerance in `[0, 1]`: the fraction of thread-context
    /// capacity holding work that is ready to execute while memory
    /// accesses are outstanding. HeLM's bypass decision keys off this.
    pub fn latency_tolerance(&self) -> f64 {
        let ready = self.shade_ready.len() + self.shading.len() + self.rop_in.len();
        (ready as f64 / self.cfg.max_inflight as f64).min(1.0)
    }

    /// Reset aggregate statistics (warm-up boundary). Pipeline state is
    /// untouched.
    pub fn reset_stats(&mut self) {
        self.stats = GpuStats::default();
    }

    fn begin_frame(&mut self, now: Cycle) {
        self.frame_plans = self.workload.next_frame();
        self.rtp_tracks = vec![RtpTrack::default(); self.frame_plans.len()];
        self.cur_rtp = 0;
        self.next_report_rtp = 0;
        self.tile_cursor = 0;
        self.groups_left_in_tile = self.groups_per_tile(0);
        self.frame_start = now;
        self.last_rtp_boundary = now;
    }

    fn groups_per_tile(&self, rtp: usize) -> u32 {
        self.frame_plans[rtp]
            .frags_per_tile
            .div_ceil(self.cfg.group_size)
    }

    // ---- address generation -------------------------------------------

    fn tile_surface_offset(&self, tile: u32, group_in_tile: u32) -> u64 {
        // Row-major tiles, 4 bytes/px; groups walk the tile sequentially.
        let tile_bytes = u64::from(TILE_PX * TILE_PX) * 4;
        let group_bytes = u64::from(self.cfg.group_size) * 4;
        u64::from(tile) * tile_bytes + (u64::from(group_in_tile) * group_bytes) % tile_bytes
    }

    fn texel_addrs(&mut self, tile: u32, group_in_tile: u32, groups_in_tile: u32) -> Vec<u64> {
        let p = self.workload.profile();
        let expected = p.texels_per_frag * f64::from(self.cfg.group_size);
        let window = p.tex_window;
        let ws = p.tex_working_set;
        let n = {
            let base = expected.floor() as u32;
            let frac = expected - f64::from(base);
            base + u32::from(self.rng.chance(frac))
        };
        // Per-tile texture window, walking the atlas as tiles advance;
        // the window slides ~a quarter of the near-sampling span per frame
        // (camera motion), so cross-frame reuse exists but is contendable —
        // scaled frames would otherwise fit the 16 MB LLC too comfortably
        // to observe co-runner pressure (DESIGN.md §4).
        let window_start = (u64::from(tile) * window * 7
            + u64::from(self.frame_index) * (20 << 10))
            % ws.saturating_sub(window).max(1);
        // Screen-to-texture coherence: most samples land in a small
        // neighbourhood that slides ~1 KB per fragment group (bilinear
        // footprints of adjacent quads overlap heavily), so the samplers'
        // own L1/L2 capture the short-range reuse; a minority of samples
        // range over the whole per-tile window (distant mip levels,
        // dependent reads) and produce the LLC/DRAM traffic — matching the
        // paper's observation that texture is only ~25% of GPU LLC
        // traffic.
        let _ = groups_in_tile;
        let near_span: u64 = 2 << 10;
        let step: u64 = 512;
        let center = (u64::from(group_in_tile) * step) % window.saturating_sub(near_span).max(1);
        let mut addrs = self.spare_texels.pop().unwrap_or_default();
        for _ in 0..n {
            let off = if self.rng.chance(0.9) {
                center + self.rng.below(near_span)
            } else {
                self.rng.below(window)
            };
            addrs.push(self.tex_base + window_start + off);
        }
        addrs
    }

    // ---- per-cycle stages ----------------------------------------------

    /// Advance one GPU cycle. `quota` bounds LLC sends this cycle (the
    /// access throttle); returns the number of sends actually made.
    pub fn tick(&mut self, now: Cycle, quota: u32, port: &mut dyn MemPort) -> u32 {
        let sent = self.drain_iface(now, quota, port);
        self.move_shaded(now);
        self.rop_stage(now);
        self.shade_stage(now);
        self.raster_stage(now);
        self.check_boundaries(now);
        sent
    }

    fn drain_iface(&mut self, now: Cycle, quota: u32, port: &mut dyn MemPort) -> u32 {
        // Pull cache-generated traffic into the interface queue.
        while !self.caches.outbound.is_empty() && self.iface.len() < self.cfg.iface_queue + 16 {
            // Evictions may briefly overflow the nominal queue (the +16):
            // they cannot be refused without losing data.
            let req = self.caches.outbound.pop_front().unwrap();
            self.iface.push_back(req);
        }
        let allowed = quota.min(self.cfg.llc_ports);
        if allowed == 0 && !self.iface.is_empty() {
            self.stats.gated_cycles.inc();
            return 0;
        }
        let mut sent = 0;
        while sent < allowed {
            let Some(req) = self.iface.front().copied() else {
                break;
            };
            let token = (req.unit.encode() << 48) | (req.addr >> 6);
            let ok = port.try_request(
                now,
                BlockReq {
                    token,
                    addr: req.addr,
                    write: req.write,
                },
            );
            if !ok {
                break;
            }
            self.iface.pop_front();
            sent += 1;
            if req.write {
                self.stats.llc_writes_sent.inc();
            } else {
                self.stats.llc_reads_sent.inc();
            }
            // Attribute the access to the RTP being rendered.
            let r = (self.cur_rtp as usize).min(self.rtp_tracks.len().saturating_sub(1));
            if let Some(t) = self.rtp_tracks.get_mut(r) {
                t.llc_accesses += 1;
            }
        }
        sent
    }

    /// An LLC read issued by [`Self::tick`] completed.
    pub fn on_mem_response(&mut self, _now: Cycle, token: u64) {
        let unit = GpuUnit::decode(token >> 48);
        let block = (token & ((1 << 48) - 1)) << 6;
        let mut waiters = std::mem::take(&mut self.fill_waiters);
        self.caches.on_fill(unit, block, &mut waiters);
        match unit {
            GpuUnit::Texture => {
                for &gid in &waiters {
                    let gid = gid as u32;
                    let g = &mut self.groups[gid as usize];
                    match g.state {
                        GState::WaitTex => {
                            g.tex_left = g.tex_left.saturating_sub(1);
                            if g.tex_left == 0 {
                                g.state = GState::ReadyShade;
                                self.shade_ready.push_back(gid);
                            }
                        }
                        GState::Emitting => {
                            // Early fill while later texels are still being
                            // issued: count it, but leave scheduling to the
                            // emit stage.
                            g.tex_left = g.tex_left.saturating_sub(1);
                        }
                        GState::Free
                        | GState::ReadyShade
                        | GState::Shading(_)
                        | GState::RopQueued
                        | GState::WaitDepth => {}
                    }
                }
            }
            GpuUnit::Depth => {
                for &gid in &waiters {
                    let gid = gid as u32;
                    if self.groups[gid as usize].state == GState::WaitDepth {
                        self.finish_group(gid);
                    }
                }
            }
            GpuUnit::Vertex | GpuUnit::Color | GpuUnit::HierZ | GpuUnit::ShaderI => {}
        }
        waiters.clear();
        self.fill_waiters = waiters;
    }

    fn move_shaded(&mut self, now: Cycle) {
        while let Some(&gid) = self.shading.front() {
            let done = matches!(self.groups[gid as usize].state, GState::Shading(at) if at <= now);
            if !done || self.rop_in.len() >= self.cfg.rop_queue {
                break;
            }
            self.shading.pop_front();
            self.groups[gid as usize].state = GState::RopQueued;
            self.rop_in.push_back(gid);
        }
    }

    fn shade_stage(&mut self, now: Cycle) {
        let rate = self.workload.profile().shade_rate / f64::from(self.cfg.group_size);
        self.shade_budget = (self.shade_budget + rate).min(64.0);
        while self.shade_budget >= 1.0 {
            let Some(gid) = self.shade_ready.pop_front() else {
                break;
            };
            self.groups[gid as usize].state =
                GState::Shading(now + Cycle::from(self.cfg.shade_latency));
            self.shading.push_back(gid);
            self.shade_budget -= 1.0;
        }
    }

    fn rop_stage(&mut self, now: Cycle) {
        let _ = now;
        let mut processed = 0;
        while processed < self.cfg.rop_rate {
            let Some(&gid) = self.rop_in.front() else {
                break;
            };
            let g = self.groups[gid as usize];
            match self.caches.depth_read(g.depth_addr, u64::from(gid)) {
                GpuReadOutcome::Hit => {
                    self.rop_in.pop_front();
                    self.finish_group(gid);
                    processed += 1;
                }
                GpuReadOutcome::Pending => {
                    self.rop_in.pop_front();
                    self.groups[gid as usize].state = GState::WaitDepth;
                    processed += 1;
                }
                GpuReadOutcome::Stall => break,
            }
        }
    }

    fn finish_group(&mut self, gid: u32) {
        let g = self.groups[gid as usize];
        self.caches.color_write(g.color_addr);
        let track = &mut self.rtp_tracks[g.rtp as usize];
        track.done += 1;
        track.updates += u64::from(self.cfg.group_size);
        self.stats.fragments.add(u64::from(self.cfg.group_size));
        self.groups[gid as usize] = FREE_GROUP;
        self.free.push(gid);
        self.inflight -= 1;
    }

    fn raster_stage(&mut self, now: Cycle) {
        let _ = now;
        // First, retry texel issue for partially emitted groups.
        let mut stage_work = 0;
        while stage_work < self.cfg.raster_rate {
            let Some((gid, texels)) = self.emit_stage.front_mut() else {
                break;
            };
            let gid = *gid;
            let mut stalled = false;
            while let Some(&addr) = texels.last() {
                if self.iface.len() >= self.cfg.iface_queue {
                    stalled = true;
                    break;
                }
                match self.caches.tex_read(addr, u64::from(gid)) {
                    GpuReadOutcome::Hit => {
                        texels.pop();
                    }
                    GpuReadOutcome::Pending => {
                        texels.pop();
                        self.groups[gid as usize].tex_left += 1;
                    }
                    GpuReadOutcome::Stall => {
                        stalled = true;
                        break;
                    }
                }
            }
            if stalled {
                break;
            }
            // All texels issued: recycle the buffer and classify the group.
            if let Some((_, texels)) = self.emit_stage.pop_front() {
                self.spare_texels.push(texels);
            }
            let g = &mut self.groups[gid as usize];
            if g.tex_left == 0 {
                g.state = GState::ReadyShade;
                self.shade_ready.push_back(gid);
            } else {
                g.state = GState::WaitTex;
            }
            stage_work += 1;
        }

        // Then emit new groups for the current RTP.
        let mut emitted = 0;
        while emitted < self.cfg.raster_rate
            && self.emit_stage.len() < 8
            && (self.cur_rtp as usize) < self.frame_plans.len()
            && !self.rtp_tracks[self.cur_rtp as usize].emit_finished
        {
            let Some(gid) = self.free.pop() else {
                break; // thread contexts exhausted
            };
            // Start-of-tile bookkeeping: one posted vertex fetch plus a
            // hierarchical-Z coarse-depth touch per tile; at the first
            // tile of an RTP, the shader program for the pass is fetched.
            let groups_in_tile = self.groups_per_tile(self.cur_rtp as usize);
            if self.groups_left_in_tile == groups_in_tile {
                let vaddr = self.vertex_base + (self.vertex_cursor % (8 << 20));
                self.vertex_cursor += 64;
                let _ = self.caches.vertex_read(vaddr);
                // Unified shaders: vertex work for this tile's geometry
                // consumes fragment-shading throughput.
                if self.cfg.vertex_shade_cost > 0.0 {
                    self.shade_budget -=
                        self.cfg.vertex_shade_cost / f64::from(self.cfg.group_size);
                }
                // One 64 B coarse-depth line covers many tiles; tile/8
                // keeps the hiZ footprint proportional to the RT.
                let hiz_addr = self.hiz_base + u64::from(self.tile_cursor / 8) * 64;
                self.caches.hiz_read(hiz_addr);
                if self.tile_cursor == 0 {
                    // ~4 KB of shader program per pass, distinct per RTP.
                    let prog = self.shader_prog_base + u64::from(self.cur_rtp) * 4096;
                    for blk in 0..8u64 {
                        self.caches.shader_i_read(prog + blk * 512);
                    }
                }
            }
            let tile = self.tile_cursor;
            let group_in_tile = groups_in_tile - self.groups_left_in_tile;
            let texels = self.texel_addrs(tile, group_in_tile, groups_in_tile);
            let color_surface = self.color_bases[(self.frame_index & 1) as usize];
            let offset = self.tile_surface_offset(tile, group_in_tile);
            let g = Group {
                state: GState::Emitting, // refined once all texels issue
                rtp: self.cur_rtp,
                tex_left: 0,
                depth_addr: self.depth_base + offset,
                color_addr: color_surface + offset,
            };
            self.groups[gid as usize] = g;
            self.inflight += 1;
            self.emit_stage.push_back((gid, texels));
            let track = &mut self.rtp_tracks[self.cur_rtp as usize];
            track.emitted += 1;
            emitted += 1;

            // Advance the tile walk.
            self.groups_left_in_tile -= 1;
            if self.groups_left_in_tile == 0 {
                self.tile_cursor += 1;
                if self.tile_cursor >= self.tiles {
                    track.emit_finished = true;
                    self.tile_cursor = 0;
                    self.cur_rtp += 1;
                    if (self.cur_rtp as usize) < self.frame_plans.len() {
                        self.groups_left_in_tile = self.groups_per_tile(self.cur_rtp as usize);
                    }
                } else {
                    self.groups_left_in_tile = groups_in_tile;
                }
            }
        }
    }

    fn check_boundaries(&mut self, now: Cycle) {
        // Report RTP completions in order.
        while (self.next_report_rtp as usize) < self.rtp_tracks.len() {
            let r = self.next_report_rtp as usize;
            let t = &self.rtp_tracks[r];
            if !(t.emit_finished && t.done == t.emitted && !t.reported) {
                break;
            }
            self.events.push(GpuEvent::RtpComplete {
                frame: self.frame_index,
                rtp: self.next_report_rtp,
                updates: t.updates,
                cycles: now - self.last_rtp_boundary,
                tiles: self.tiles,
                llc_accesses: t.llc_accesses,
            });
            self.rtp_tracks[r].reported = true;
            self.last_rtp_boundary = now;
            self.next_report_rtp += 1;
        }
        // Frame completion.
        if self.next_report_rtp as usize == self.rtp_tracks.len() {
            let cycles = now - self.frame_start;
            self.events.push(GpuEvent::FrameComplete {
                frame: self.frame_index,
                cycles,
            });
            self.stats.frames.inc();
            self.stats.frame_cycles.push(cycles as f64);
            self.frame_index += 1;
            self.begin_frame(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Api, GameProfile};
    use gat_cache::SinkPort;

    fn tiny_game() -> GameProfile {
        GameProfile {
            name: "tiny",
            api: Api::DirectX,
            width: 128,
            height: 64,
            frames: (0, 9),
            rtps_per_frame: 2,
            frags_per_tile: 256.0,
            texels_per_frag: 0.5,
            shade_rate: 2.0,
            tex_working_set: 4 << 20,
            tex_window: 64 << 10,
            rtp_jitter: 0.05,
            frame_drift: 0.02,
            scene_cut_period: 0,
            table2_fps: 60.0,
        }
    }

    fn pipeline(scale: u32) -> GpuPipeline {
        let cfg = GpuConfig {
            scale,
            ..Default::default()
        };
        GpuPipeline::new(
            cfg,
            WorkloadGen::new(tiny_game(), SimRng::new(11)),
            SimRng::new(12),
        )
    }

    /// Run with an ideal memory that answers reads after `lat` cycles.
    fn run_frames(pl: &mut GpuPipeline, frames: u32, lat: u64, quota: u32) -> Vec<GpuEvent> {
        let mut port = SinkPort::default();
        let mut inflight: Vec<(Cycle, u64)> = Vec::new();
        let mut events = Vec::new();
        let mut now = 0u64;
        while pl.stats.frames.get() < u64::from(frames) {
            let due: Vec<u64> = inflight
                .iter()
                .filter(|(t, _)| *t <= now)
                .map(|&(_, tok)| tok)
                .collect();
            inflight.retain(|(t, _)| *t > now);
            for tok in due {
                pl.on_mem_response(now, tok);
            }
            pl.tick(now, quota, &mut port);
            for (t, req) in port.accepted.drain(..) {
                if !req.write {
                    inflight.push((t + lat, req.token));
                }
            }
            pl.drain_events(&mut events);
            now += 1;
            assert!(now < 100_000_000, "pipeline wedged");
        }
        events
    }

    #[test]
    fn renders_frames_and_reports_events() {
        let mut pl = pipeline(1);
        let events = run_frames(&mut pl, 3, 50, u32::MAX);
        let frames: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, GpuEvent::FrameComplete { .. }))
            .collect();
        assert_eq!(frames.len(), 3);
        let rtps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, GpuEvent::RtpComplete { .. }))
            .collect();
        assert_eq!(rtps.len(), 6, "2 RTPs per frame × 3 frames");
    }

    #[test]
    fn rtp_events_carry_consistent_work() {
        let mut pl = pipeline(1);
        let tiles = pl.tiles();
        let events = run_frames(&mut pl, 2, 20, u32::MAX);
        for e in &events {
            if let GpuEvent::RtpComplete {
                updates,
                tiles: t,
                cycles,
                llc_accesses,
                ..
            } = e
            {
                assert_eq!(*t, tiles);
                assert!(*updates >= u64::from(tiles) * 4, "≥1 group per tile");
                assert!(*cycles > 0);
                assert!(*llc_accesses > 0, "rendering must touch the LLC");
            }
        }
    }

    #[test]
    fn invariants_hold_while_rendering() {
        let mut pl = pipeline(1);
        pl.check_invariants().unwrap();
        run_frames(&mut pl, 2, 50, u32::MAX);
        pl.check_invariants().unwrap();
        // A throttled run leaves work parked in the interface mid-frame;
        // the bounds must hold there too.
        let mut gated = pipeline(1);
        run_frames(&mut gated, 1, 50, 1);
        gated.check_invariants().unwrap();
    }

    #[test]
    fn fps_scales_with_scale_parameter() {
        // The same game at double the scale renders ~half the pixels per
        // frame, but reported FPS must stay roughly constant.
        let mut a = pipeline(1);
        run_frames(&mut a, 4, 30, u32::MAX);
        let mut b = pipeline(4);
        run_frames(&mut b, 4, 30, u32::MAX);
        let (fa, fb) = (a.fps(), b.fps());
        assert!(
            (fa / fb) > 0.5 && (fa / fb) < 2.0,
            "scale-invariant FPS: {fa} vs {fb}"
        );
    }

    #[test]
    fn memory_latency_slows_frames() {
        let mut fast = pipeline(4);
        run_frames(&mut fast, 3, 10, u32::MAX);
        let mut slow = pipeline(4);
        run_frames(&mut slow, 3, 2000, u32::MAX);
        assert!(
            slow.stats.frame_cycles.mean() > fast.stats.frame_cycles.mean() * 1.2,
            "fast {} slow {}",
            fast.stats.frame_cycles.mean(),
            slow.stats.frame_cycles.mean()
        );
    }

    #[test]
    fn throttling_quota_slows_frames_and_counts_gated_cycles() {
        let mut open = pipeline(4);
        run_frames(&mut open, 3, 50, u32::MAX);
        let mut gated = pipeline(4);
        // Quota 0 on alternating calls is emulated by a tiny quota of 1
        // send per cycle? Use 0-quota path via run with quota 0 only when
        // iface busy — simplest: quota=1 heavily restricts the interface.
        run_frames(&mut gated, 3, 50, 1);
        assert!(
            gated.stats.frame_cycles.mean() >= open.stats.frame_cycles.mean(),
            "throttled must not be faster"
        );
    }

    #[test]
    fn color_traffic_produces_llc_writes() {
        // Full tile coverage so the two double-buffered color surfaces
        // overflow the 32 KB color cache and evict dirty lines.
        let mut game = tiny_game();
        game.frags_per_tile = 1024.0;
        game.rtp_jitter = 0.0;
        game.frame_drift = 0.0;
        let cfg = GpuConfig {
            scale: 2,
            ..Default::default()
        };
        let mut pl = GpuPipeline::new(
            cfg,
            WorkloadGen::new(game, SimRng::new(11)),
            SimRng::new(12),
        );
        run_frames(&mut pl, 3, 20, u32::MAX);
        assert!(
            pl.stats.llc_writes_sent.get() > 0,
            "dirty color evictions must reach the LLC"
        );
        assert!(pl.stats.llc_reads_sent.get() > 0);
    }

    #[test]
    fn frame_budget_marks_done() {
        let mut pl = pipeline(8);
        pl.set_frame_budget(2);
        assert!(!pl.done());
        run_frames(&mut pl, 2, 20, u32::MAX);
        assert!(pl.done());
    }

    #[test]
    fn fixed_function_units_generate_traffic() {
        let mut pl = pipeline(2);
        run_frames(&mut pl, 3, 20, u32::MAX);
        let us = pl.unit_stats();
        // Vertex fetches happen once per tile; hier-Z at tile starts;
        // shader-I at RTP starts — all units must have been exercised.
        let vertex_accesses = us[4].0 + us[4].1;
        assert!(vertex_accesses > 0, "vertex path silent");
        let hiz = &pl.caches.hiz.stats;
        assert!(hiz.accesses() > 0, "hier-Z path silent");
        let shi = &pl.caches.shader_i.stats;
        assert!(shi.accesses() > 0, "shader-I path silent");
        // Shader programs are tiny and reused: the I-cache must hit far
        // more than it misses after the first frame.
        assert!(shi.hits.get() > shi.misses.get());
    }

    #[test]
    fn vertex_shading_cost_slows_frames() {
        let mk = |cost: f64| {
            let cfg = GpuConfig {
                scale: 4,
                vertex_shade_cost: cost,
                ..Default::default()
            };
            GpuPipeline::new(
                cfg,
                WorkloadGen::new(tiny_game(), SimRng::new(11)),
                SimRng::new(12),
            )
        };
        let mut off = mk(0.0);
        run_frames(&mut off, 3, 20, u32::MAX);
        let mut on = mk(64.0); // heavy geometry: 64 frag-equivalents/tile
        run_frames(&mut on, 3, 20, u32::MAX);
        assert!(
            on.stats.frame_cycles.mean() > off.stats.frame_cycles.mean() * 1.02,
            "vertex work must cost shader throughput: {} vs {}",
            off.stats.frame_cycles.mean(),
            on.stats.frame_cycles.mean()
        );
    }

    #[test]
    fn zero_quota_counts_gated_cycles() {
        let mut pl = pipeline(4);
        let mut port = SinkPort::default();
        // Run with quota 0: the interface can never send, the pipeline
        // backs up, and every starved cycle is counted.
        for now in 0..50_000 {
            pl.tick(now, 0, &mut port);
        }
        assert_eq!(port.accepted.len(), 0, "nothing may leak past the gate");
        assert!(pl.stats.gated_cycles.get() > 0, "gated cycles uncounted");
        assert!(pl.iface_occupancy() > 0, "requests must be held inside");
    }

    #[test]
    fn deterministic_given_seeds() {
        let mut a = pipeline(4);
        let ea = run_frames(&mut a, 2, 40, u32::MAX);
        let mut b = pipeline(4);
        let eb = run_frames(&mut b, 2, 40, u32::MAX);
        assert_eq!(ea, eb);
    }
}
