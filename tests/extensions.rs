//! Integration tests for the features beyond the paper's Figure 1: the
//! decompression test application (the paper's stated future work) and the
//! wrapper shift bound.

use noctest::core::{GreedyScheduler, Scheduler, SystemBuilder, TimingModel, WrapperDesign};
use noctest::cpu::{decompress, Isa, ProcessorProfile, SourceMode};
use noctest::itc02::data;

#[test]
fn decompression_source_beats_bist_on_sparse_cubes() {
    let bist = ProcessorProfile::plasma().calibrated().unwrap();
    let decomp = bist.clone().calibrated_decompression(0.02).unwrap();
    assert_eq!(decomp.source_mode, SourceMode::Decompression);

    let build = |profile: &ProcessorProfile| {
        SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(profile, 6, 6)
            .build()
            .unwrap()
    };
    let t_bist = {
        let sys = build(&bist);
        let s = GreedyScheduler.schedule(&sys).unwrap();
        s.validate(&sys).unwrap();
        s.makespan()
    };
    let t_decomp = {
        let sys = build(&decomp);
        let s = GreedyScheduler.schedule(&sys).unwrap();
        s.validate(&sys).unwrap();
        s.makespan()
    };
    assert!(
        t_decomp < t_bist,
        "sparse-cube decompression ({t_decomp}) must beat BIST ({t_bist})"
    );
}

#[test]
fn decompression_advantage_vanishes_on_dense_cubes() {
    // At 50% care density the stream is nearly incompressible and the
    // decompressor is no faster than the LFSR.
    let run_sparse = {
        let stream = decompress::compress(&decompress::synthetic_test_words(2048, 0.02, 11));
        decompress::run_decompress(Isa::MipsI, &stream).unwrap()
    };
    let run_dense = {
        let stream = decompress::compress(&decompress::synthetic_test_words(2048, 0.5, 11));
        decompress::run_decompress(Isa::MipsI, &stream).unwrap()
    };
    assert!(run_sparse.cycles_per_word() < run_dense.cycles_per_word());
    assert!(run_dense.compression_ratio() < 1.5);
    assert!(run_sparse.compression_ratio() > 4.0);
}

#[test]
fn wrapper_bound_lengthens_but_preserves_validity() {
    let profile = ProcessorProfile::leon().calibrated().unwrap();
    let mut makespans = Vec::new();
    for wrapper_shift in [false, true] {
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&profile, 6, 6)
            .timing(TimingModel {
                wrapper_shift,
                ..TimingModel::default()
            })
            .build()
            .unwrap();
        let schedule = GreedyScheduler.schedule(&sys).unwrap();
        schedule.validate(&sys).unwrap();
        makespans.push(schedule.makespan());
    }
    assert!(
        makespans[1] >= makespans[0],
        "the wrapper shift bound can only lengthen sessions: {makespans:?}"
    );
}

#[test]
fn benchmark_wrappers_have_sane_bounds() {
    // Every d695 core's wrapper bound must cover its longest internal
    // chain and never exceed its total scan-in bits.
    let soc = data::d695();
    for m in soc.cores() {
        let w = WrapperDesign::design(
            m.scan_chains(),
            m.inputs() + m.bidirs(),
            m.outputs() + m.bidirs(),
            16,
        );
        assert!(w.max_in() >= m.max_chain(), "{}", m.id());
        assert!(w.max_in() <= m.pattern_bits_in(), "{}", m.id());
        assert!(w.max_out() >= m.max_chain(), "{}", m.id());
        let total_in: u32 = w.in_chains().iter().sum();
        assert_eq!(total_in, m.pattern_bits_in(), "{}", m.id());
    }
}

#[test]
fn decompressed_stream_is_bit_exact_through_both_isas() {
    // Full pipeline determinism: same cubes, same stream, same output on
    // both architectures, equal to the host reference.
    let cubes = decompress::synthetic_test_words(512, 0.07, 0xF00D);
    let stream = decompress::compress(&cubes);
    let host = decompress::decompress_host(&stream);
    assert_eq!(host, cubes);
    let mips = decompress::run_decompress(Isa::MipsI, &stream).unwrap();
    let sparc = decompress::run_decompress(Isa::SparcV8, &stream).unwrap();
    assert_eq!(mips.words, cubes);
    assert_eq!(sparc.words, cubes);
}
