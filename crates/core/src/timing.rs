//! The analytic timing model the planner schedules with.
//!
//! A core's test session delivers `patterns` stimulus packets and drains as
//! many response packets over the NoC. Per pattern the session pays:
//!
//! ```text
//! T_pat = gen_overhead(interface)                  // paper: 10 cy / 0 cy
//!       + max(channel_in,  source_word_cost)      // stimulus serialisation
//!       + max(channel_out, sink_word_cost)        // response serialisation
//!       + 2 * routing_latency                     // route setup, in + out
//! ```
//!
//! where `channel_x = flits(bits_x) * flow_latency` is the wormhole
//! serialisation cost and `source/sink_word_cost` models a *software*
//! source/sink that produces/consumes one 32-bit word every
//! `gen_cycles_per_word` cycles (measured on the instruction-set
//! simulator; the external ATE streams at channel rate). A one-time
//! pipeline-fill term of `(hops_in + hops_out) * (routing + flow)` is added
//! per session. Stimulus and response are *not* overlapped: a processor
//! interface is a single-threaded program, and the paper's serialized model
//! is kept for the external tester for consistency (README, "Reproducing
//! the paper": `characterize` and `validate_model` report the
//! calibration).

use crate::cut::CoreUnderTest;
use crate::interface::TestInterface;

/// Generation-cost model for processor interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GenerationModel {
    /// The paper's assumption: a flat `gen_cycles_per_pattern` (10 cycles)
    /// per pattern; word-level software cost ignored.
    PaperFlat,
    /// Flat per-pattern overhead **plus** the measured per-word software
    /// generation cost, making a processor-sourced stream slower than the
    /// channel when the ISS says so. This is the default: it is what the
    /// real Plasma/Leon BIST kernels do.
    #[default]
    Calibrated,
}

/// All timing constants in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    /// Channel width in bits per flit (Hermes-like default: 16).
    pub flit_width_bits: u32,
    /// Cycles to forward one flit over one link (default: 2).
    pub flow_latency: u32,
    /// Cycles to route a header at one router (default: 10).
    pub routing_latency: u32,
    /// How processor generation cost is modelled.
    pub generation: GenerationModel,
    /// When `true`, a core cannot absorb stimulus (or emit responses)
    /// faster than its longest wrapper scan chain shifts — the
    /// [`crate::wrapper`] bound. Off by default: the Hermes-class channel
    /// is slower than almost every wrapper, so the paper's transport-only
    /// model is a good approximation (the ablation quantifies how good).
    pub wrapper_shift: bool,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            flit_width_bits: 16,
            flow_latency: 2,
            routing_latency: 10,
            generation: GenerationModel::Calibrated,
            wrapper_shift: false,
        }
    }
}

impl TimingModel {
    /// Flits needed for a `bits`-bit payload, header included.
    #[must_use]
    pub fn flits(&self, bits: u32) -> u32 {
        bits.div_ceil(self.flit_width_bits) + 1
    }

    /// 32-bit words needed for a `bits`-bit payload (software cost unit).
    #[must_use]
    pub fn words(&self, bits: u32) -> u32 {
        bits.div_ceil(32)
    }

    /// Cycles per pattern for `cut` driven by `iface` (see module docs).
    #[must_use]
    pub fn pattern_cycles(&self, cut: &CoreUnderTest, iface: &TestInterface) -> u64 {
        let channel_in = u64::from(self.flits(cut.bits_in)) * u64::from(self.flow_latency);
        let channel_out = u64::from(self.flits(cut.bits_out)) * u64::from(self.flow_latency);
        let (src, snk) = match (self.generation, iface.gen_cycles_per_word()) {
            (GenerationModel::Calibrated, Some(cpw)) => {
                // The sink half (receive + recompute + compare) is costlier
                // per word than generation; fall back to the source cost if
                // the profile was only partially calibrated.
                let spw = iface.sink_cycles_per_word().unwrap_or(cpw);
                let wc_in = (f64::from(self.words(cut.bits_in)) * cpw).ceil() as u64;
                let wc_out = (f64::from(self.words(cut.bits_out)) * spw).ceil() as u64;
                (channel_in.max(wc_in), channel_out.max(wc_out))
            }
            _ => (channel_in, channel_out),
        };
        let (src, snk) = if self.wrapper_shift {
            (
                src.max(u64::from(cut.shift_in_bound)),
                snk.max(u64::from(cut.shift_out_bound)),
            )
        } else {
            (src, snk)
        };
        u64::from(iface.gen_cycles_per_pattern()) + src + snk + 2 * u64::from(self.routing_latency)
    }

    /// One-time pipeline-fill cost of a single `hops`-hop path: each
    /// router on the way charges one route setup plus one flit forward
    /// before the stream reaches steady state. This is the **only** place
    /// the fill arithmetic lives — both the analytic session model
    /// ([`TimingModel::session_fill`]) and the replay cross-check
    /// ([`crate::replay::analytic_stream_cycles`]) build on it, so the two
    /// cannot drift.
    #[must_use]
    pub fn pipeline_fill(&self, hops: u32) -> u64 {
        u64::from(hops) * u64::from(self.routing_latency + self.flow_latency)
    }

    /// One-time pipeline-fill cost for a session whose stimulus path is
    /// `hops_in` hops and response path `hops_out` hops.
    #[must_use]
    pub fn session_fill(&self, hops_in: u32, hops_out: u32) -> u64 {
        self.pipeline_fill(hops_in) + self.pipeline_fill(hops_out)
    }

    /// Full session duration: all patterns plus pipeline fill.
    #[must_use]
    pub fn session_cycles(
        &self,
        cut: &CoreUnderTest,
        iface: &TestInterface,
        hops_in: u32,
        hops_out: u32,
    ) -> u64 {
        u64::from(cut.patterns) * self.pattern_cycles(cut, iface)
            + self.session_fill(hops_in, hops_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{CutId, CutKind};
    use noctest_cpu::ProcessorProfile;
    use noctest_noc::NodeId;

    fn cut(bits_in: u32, bits_out: u32, patterns: u32) -> CoreUnderTest {
        CoreUnderTest {
            id: CutId(0),
            name: "x".into(),
            node: NodeId::new(0),
            kind: CutKind::Core,
            bits_in,
            bits_out,
            patterns,
            power: 100.0,
            shift_in_bound: 0,
            shift_out_bound: 0,
        }
    }

    fn ext() -> TestInterface {
        TestInterface::ExternalTester {
            input_node: NodeId::new(0),
            output_node: NodeId::new(3),
        }
    }

    fn calibrated_proc() -> TestInterface {
        TestInterface::Processor {
            index: 0,
            node: NodeId::new(1),
            profile: ProcessorProfile::plasma().calibrated().unwrap(),
        }
    }

    #[test]
    fn flit_and_word_math() {
        let t = TimingModel::default();
        assert_eq!(t.flits(16), 2); // 1 payload + header
        assert_eq!(t.flits(17), 3);
        assert_eq!(t.flits(1), 2);
        assert_eq!(t.words(32), 1);
        assert_eq!(t.words(33), 2);
    }

    #[test]
    fn external_pattern_cost_is_channel_limited() {
        let t = TimingModel::default();
        let c = cut(160, 160, 10);
        // flits = 11 each way; (11+11)*2 + 2*10 = 64.
        assert_eq!(t.pattern_cycles(&c, &ext()), 64);
    }

    #[test]
    fn processor_source_is_slower_when_calibrated() {
        let t = TimingModel::default();
        let c = cut(1600, 1600, 10);
        let ext_cost = t.pattern_cycles(&c, &ext());
        let proc_cost = t.pattern_cycles(&c, &calibrated_proc());
        assert!(
            proc_cost > ext_cost,
            "software source must be slower: {proc_cost} vs {ext_cost}"
        );
        // ~9.5 cycles per 32-bit word vs 2 cycles per 16-bit flit =>
        // roughly 2.4x on the serialisation terms.
        let ratio = proc_cost as f64 / ext_cost as f64;
        assert!((1.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_flat_model_only_adds_ten_cycles() {
        let t = TimingModel {
            generation: GenerationModel::PaperFlat,
            ..TimingModel::default()
        };
        let c = cut(160, 160, 1);
        let diff = t.pattern_cycles(&c, &calibrated_proc()) - t.pattern_cycles(&c, &ext());
        assert_eq!(diff, 10);
    }

    #[test]
    fn session_scales_with_patterns_and_fill() {
        let t = TimingModel::default();
        let c1 = cut(100, 100, 1);
        let c100 = cut(100, 100, 100);
        let s1 = t.session_cycles(&c1, &ext(), 3, 2);
        let s100 = t.session_cycles(&c100, &ext(), 3, 2);
        assert_eq!(
            s100 - s1,
            99 * t.pattern_cycles(&c1, &ext()),
            "sessions must be affine in pattern count"
        );
        assert_eq!(t.session_fill(3, 2), 5 * 12);
        assert_eq!(
            t.session_fill(3, 2),
            t.pipeline_fill(3) + t.pipeline_fill(2),
            "session fill is the sum of its two path fills"
        );
        assert_eq!(t.pipeline_fill(0), 0);
    }

    #[test]
    fn wrapper_shift_bounds_pattern_time() {
        let plain = TimingModel::default();
        let wrapped = TimingModel {
            wrapper_shift: true,
            ..TimingModel::default()
        };
        let mut c = cut(64, 64, 10);
        // A single slow wrapper chain longer than the channel time.
        c.shift_in_bound = 5000;
        c.shift_out_bound = 10;
        let t_plain = plain.pattern_cycles(&c, &ext());
        let t_wrapped = wrapped.pattern_cycles(&c, &ext());
        assert!(t_wrapped > t_plain);
        assert!(t_wrapped >= 5000);
        // Fast wrapper: no difference.
        c.shift_in_bound = 1;
        c.shift_out_bound = 1;
        assert_eq!(wrapped.pattern_cycles(&c, &ext()), t_plain);
    }

    #[test]
    fn default_model_is_hermes_like() {
        let t = TimingModel::default();
        assert_eq!(t.flit_width_bits, 16);
        assert_eq!(t.flow_latency, 2);
        assert_eq!(t.routing_latency, 10);
        assert_eq!(t.generation, GenerationModel::Calibrated);
    }
}
