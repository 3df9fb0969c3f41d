//! Synthetic per-game rendering workloads.
//!
//! A [`GameProfile`] describes one Table II title: resolution, rendering
//! structure (RTPs per frame, fragment coverage, texture intensity,
//! shading cost) and temporal behaviour (per-RTP jitter, slow inter-frame
//! drift, periodic scene cuts). A [`WorkloadGen`] expands the profile into
//! a deterministic per-frame/per-RTP work plan that the pipeline executes.
//!
//! Scaling: the pipeline renders at `width/√scale × height/√scale` so a
//! frame costs `1/scale` of the real cycles; reported FPS multiplies the
//! measured rate back down (see `GpuPipeline::fps`), keeping Table II's
//! numbers in natural units while staying laptop-runnable.

use gat_sim::rng::SimRng;

/// Render-target tile edge in pixels (paper §III-A1 divides the RT into
/// t×t tiles; 32 is the classic choice).
pub const TILE_PX: u32 = 32;

/// Graphics API of the source trace (Table II column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    DirectX,
    OpenGl,
}

/// One game title's synthetic workload description.
#[derive(Debug, Clone)]
pub struct GameProfile {
    /// Title, e.g. "DOOM3".
    pub name: &'static str,
    pub api: Api,
    /// Native render-target resolution (Table II "Res" column).
    pub width: u32,
    pub height: u32,
    /// Frame-sequence label from Table II (inclusive), e.g. (300, 314).
    pub frames: (u32, u32),
    /// Average render-target planes per frame (full-coverage update
    /// batches; roughly geometry passes × overdraw).
    pub rtps_per_frame: u32,
    /// Average fragments produced per tile per RTP (≤ TILE_PX² for partial
    /// coverage).
    pub frags_per_tile: f64,
    /// Average texture-sampler reads per fragment.
    pub texels_per_frag: f64,
    /// Aggregate shader throughput in fragments/GPU-cycle (folds shader
    /// program length and the 64-core × 4-ALU machine of Table I into one
    /// service rate).
    pub shade_rate: f64,
    /// Texture footprint in bytes.
    pub tex_working_set: u64,
    /// Texture access locality window in bytes (bigger ⇒ worse cache
    /// behaviour).
    pub tex_window: u64,
    /// Per-RTP multiplicative work jitter (stddev).
    pub rtp_jitter: f64,
    /// Per-frame slow drift of total work (stddev of a random walk step).
    pub frame_drift: f64,
    /// A scene cut (work level reset) every this many frames; 0 = never.
    pub scene_cut_period: u32,
    /// Standalone FPS published in Table II (calibration reference).
    pub table2_fps: f64,
}

impl GameProfile {
    /// Sanity checks.
    pub fn validate(&self) {
        assert!(
            self.width >= TILE_PX && self.height >= TILE_PX,
            "{}",
            self.name
        );
        assert!(self.rtps_per_frame >= 1, "{}", self.name);
        assert!(
            self.frags_per_tile > 0.0 && self.frags_per_tile <= f64::from(TILE_PX * TILE_PX),
            "{}: frags_per_tile",
            self.name
        );
        assert!(self.texels_per_frag >= 0.0, "{}", self.name);
        assert!(self.shade_rate > 0.0, "{}", self.name);
        assert!(
            self.tex_window > 0 && self.tex_window <= self.tex_working_set,
            "{}",
            self.name
        );
        assert!(self.table2_fps > 0.0, "{}", self.name);
    }

    /// Tile grid at a given work scale (resolution shrunk by √scale,
    /// rounded up to whole tiles).
    pub fn tile_grid(&self, scale: u32) -> (u32, u32) {
        assert!(scale >= 1);
        let f = (f64::from(scale)).sqrt();
        let w = ((f64::from(self.width) / f).ceil() as u32).max(TILE_PX);
        let h = ((f64::from(self.height) / f).ceil() as u32).max(TILE_PX);
        (w.div_ceil(TILE_PX), h.div_ceil(TILE_PX))
    }

    /// Total tiles at a given scale.
    pub fn tiles(&self, scale: u32) -> u32 {
        let (tx, ty) = self.tile_grid(scale);
        tx * ty
    }

    /// Number of frames in the Table II sequence.
    pub fn frame_count(&self) -> u32 {
        self.frames.1 - self.frames.0 + 1
    }

    /// First-order estimate of shader-bound cycles per frame at scale 1.
    /// Used by calibration tests to cross-check `shade_rate` against the
    /// Table II FPS.
    pub fn ideal_cycles_per_frame(&self) -> f64 {
        let frags = f64::from(self.tiles(1)) * self.frags_per_tile * f64::from(self.rtps_per_frame);
        frags / self.shade_rate
    }
}

/// Work plan for one RTP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtpPlan {
    /// Fragments to produce in each tile of this RTP.
    pub frags_per_tile: u32,
}

/// Deterministic expansion of a profile into per-frame RTP plans.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    profile: GameProfile,
    rng: SimRng,
    /// Current slow-drift multiplier (random walk).
    drift: f64,
    frame_index: u32,
}

impl WorkloadGen {
    pub fn new(profile: GameProfile, rng: SimRng) -> Self {
        profile.validate();
        Self {
            profile,
            rng,
            drift: 1.0,
            frame_index: 0,
        }
    }

    pub fn profile(&self) -> &GameProfile {
        &self.profile
    }

    pub fn frame_index(&self) -> u32 {
        self.frame_index
    }

    /// Produce the RTP plans for the next frame.
    ///
    /// Work varies three ways, mirroring real game traces: small per-RTP
    /// jitter, a slow inter-frame drift (camera/scene movement), and
    /// occasional scene cuts that re-level the work abruptly — the events
    /// that force the paper's frame-rate estimator back into its learning
    /// phase.
    pub fn next_frame(&mut self) -> Vec<RtpPlan> {
        let mut plans = Vec::new();
        self.next_frame_into(&mut plans);
        plans
    }

    /// [`Self::next_frame`] into `plans`, replacing its contents; reusing
    /// one buffer keeps a frame boundary allocation-free.
    pub fn next_frame_into(&mut self, plans: &mut Vec<RtpPlan>) {
        let p = &self.profile;
        // Scene cut: re-level drift to a fresh value in [0.6, 1.6).
        if p.scene_cut_period > 0
            && self.frame_index > 0
            && self.frame_index.is_multiple_of(p.scene_cut_period)
        {
            self.drift = 0.6 + self.rng.f64();
        } else if self.frame_index > 0 {
            // Slow random walk, clamped.
            self.drift = (self.drift * self.rng.jitter(p.frame_drift, 0.25)).clamp(0.4, 2.5);
        }
        let max_frags = f64::from(TILE_PX * TILE_PX);
        let drift = self.drift;
        let jitter_sd = p.rtp_jitter;
        let base = p.frags_per_tile;
        plans.clear();
        for _ in 0..p.rtps_per_frame {
            let jitter = self.rng.jitter(jitter_sd, 0.2);
            let f = (base * drift * jitter).clamp(4.0, max_frags);
            plans.push(RtpPlan {
                frags_per_tile: f as u32,
            });
        }
        self.frame_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn doom3_like() -> GameProfile {
        GameProfile {
            name: "DOOM3",
            api: Api::OpenGl,
            width: 1600,
            height: 1200,
            frames: (300, 314),
            rtps_per_frame: 4,
            frags_per_tile: 700.0,
            texels_per_frag: 1.0,
            shade_rate: 1.1,
            tex_working_set: 128 << 20,
            tex_window: 256 << 10,
            rtp_jitter: 0.10,
            frame_drift: 0.03,
            scene_cut_period: 0,
            table2_fps: 81.0,
        }
    }

    #[test]
    fn tile_grid_scales_with_sqrt() {
        let g = doom3_like();
        let (tx, ty) = g.tile_grid(1);
        assert_eq!((tx, ty), (50, 38));
        let (tx4, ty4) = g.tile_grid(4);
        assert_eq!((tx4, ty4), (25, 19));
        // Never below one tile.
        let (txb, tyb) = g.tile_grid(1 << 20);
        assert_eq!((txb, tyb), (1, 1));
    }

    #[test]
    fn frame_count_from_table_two() {
        assert_eq!(doom3_like().frame_count(), 15);
    }

    #[test]
    fn plans_are_deterministic_and_bounded() {
        let mut a = WorkloadGen::new(doom3_like(), SimRng::new(5));
        let mut b = WorkloadGen::new(doom3_like(), SimRng::new(5));
        for _ in 0..20 {
            let (fa, fb) = (a.next_frame(), b.next_frame());
            assert_eq!(fa, fb);
            assert_eq!(fa.len(), 4);
            for rtp in &fa {
                assert!(rtp.frags_per_tile >= 4);
                assert!(rtp.frags_per_tile <= TILE_PX * TILE_PX);
            }
        }
    }

    #[test]
    fn scene_cut_changes_work_level() {
        let mut p = doom3_like();
        p.scene_cut_period = 5;
        p.frame_drift = 0.0;
        p.rtp_jitter = 0.0;
        let mut g = WorkloadGen::new(p, SimRng::new(7));
        let mut levels = Vec::new();
        for _ in 0..20 {
            levels.push(g.next_frame()[0].frags_per_tile);
        }
        // Frames 0-4 identical, then a cut at frame 5.
        assert_eq!(levels[0], levels[4]);
        assert_ne!(levels[4], levels[5], "scene cut must change work");
        assert_eq!(levels[5], levels[9]);
    }

    #[test]
    fn drift_stays_clamped() {
        let mut p = doom3_like();
        p.frame_drift = 0.5; // violent drift
        let mut g = WorkloadGen::new(p, SimRng::new(9));
        for _ in 0..200 {
            for rtp in g.next_frame() {
                assert!(rtp.frags_per_tile >= 4);
                assert!(rtp.frags_per_tile <= TILE_PX * TILE_PX);
            }
        }
    }

    #[test]
    fn ideal_cycles_give_plausible_fps() {
        let g = doom3_like();
        let fps_ideal = 1e9 / g.ideal_cycles_per_frame();
        // The shader-bound ceiling must sit above the Table II value
        // (memory stalls bring the realized FPS down to it).
        assert!(
            fps_ideal > g.table2_fps * 0.9 && fps_ideal < g.table2_fps * 4.0,
            "ideal FPS {fps_ideal} vs table {}",
            g.table2_fps
        );
    }
}
