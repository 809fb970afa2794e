//! The entire pipeline must be deterministic: identical inputs produce
//! identical characterisations, schedules and experiment panels. This is
//! what makes EXPERIMENTS.md's recorded numbers reproducible on any
//! machine.

use noctest::core::{BudgetSpec, GreedyScheduler, Scheduler, SmartScheduler, SystemBuilder};
use noctest::cpu::{bist, Isa, ProcessorProfile};
use noctest::itc02::data;
use noctest::noc::{characterize, NocConfig, TrafficSpec};

#[test]
fn iss_characterisation_is_bit_stable() {
    let a = ProcessorProfile::leon().calibrated().unwrap();
    let b = ProcessorProfile::leon().calibrated().unwrap();
    assert_eq!(a.gen_cycles_per_word, b.gen_cycles_per_word);
    assert_eq!(a.sink_cycles_per_word, b.sink_cycles_per_word);
    let r1 = bist::run_bist(Isa::MipsI, 42, 100).unwrap();
    let r2 = bist::run_bist(Isa::MipsI, 42, 100).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn noc_characterisation_is_stable() {
    let config = NocConfig::builder(4, 4).build().unwrap();
    let spec = TrafficSpec::default();
    let a = characterize(&config, &spec).unwrap();
    let b = characterize(&config, &spec).unwrap();
    assert_eq!(a, b);
}

#[test]
fn schedules_are_identical_across_runs() {
    let profile = ProcessorProfile::plasma().calibrated().unwrap();
    let build = || {
        SystemBuilder::from_benchmark(&data::p22810(), 5, 6)
            .processors(&profile, 8, 6)
            .budget(BudgetSpec::Fraction(0.5))
            .build()
            .unwrap()
    };
    let s1 = GreedyScheduler.schedule(&build()).unwrap();
    let s2 = GreedyScheduler.schedule(&build()).unwrap();
    assert_eq!(s1, s2);
    let m1 = SmartScheduler.schedule(&build()).unwrap();
    let m2 = SmartScheduler.schedule(&build()).unwrap();
    assert_eq!(m1, m2);
}

#[test]
fn benchmark_data_is_stable() {
    // The memoised benchmark constructors must return structurally equal
    // values on every call (OnceLock clones).
    assert_eq!(data::d695(), data::d695());
    assert_eq!(data::p93791(), data::p93791());
}
