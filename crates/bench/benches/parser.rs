//! Benches for the ITC'02 infrastructure, the processor substrate and the
//! Campaign API's serialisation layer: `.soc` parsing/writing throughput,
//! ISS execution rate, and request/outcome JSON round-trips.

use noctest_bench::{harness::Runner, SystemId};
use noctest_core::plan::{Campaign, PlanOutcome, PlanRequest};
use noctest_core::BudgetSpec;
use noctest_cpu::{bist, Isa};
use noctest_itc02::{data, parse_soc, write_soc};

fn main() {
    let mut runner = Runner::new(5);

    println!("# .soc parse/write");
    let d695_text = data::D695_SOC;
    let p93791_text = write_soc(&data::p93791());
    runner.case("itc02_parse/d695", || parse_soc(d695_text).expect("parses"));
    runner.case("itc02_parse/p93791", || {
        parse_soc(&p93791_text).expect("parses")
    });
    let soc = data::p93791();
    runner.case("itc02_write/p93791", || write_soc(&soc));

    println!("# instruction-set simulators: BIST kernel, 1k words");
    runner.case("iss_bist_1k_words/mips", || {
        bist::run_bist(Isa::MipsI, bist::DEFAULT_SEED, 1000).expect("runs")
    });
    runner.case("iss_bist_1k_words/sparc", || {
        bist::run_bist(Isa::SparcV8, bist::DEFAULT_SEED, 1000).expect("runs")
    });

    println!("# campaign serialisation: request/outcome JSON round-trips");
    let request = SystemId::D695
        .request("leon", 4, BudgetSpec::Fraction(0.5))
        .with_name("bench");
    let request_text = request.to_json_string();
    runner.case("plan_request/json-roundtrip", || {
        PlanRequest::from_json_str(&request_text).expect("decodes")
    });
    let outcome = Campaign::new().run(&request).expect("plans");
    let outcome_text = outcome.to_json_string();
    runner.case("plan_outcome/json-roundtrip", || {
        PlanOutcome::from_json_str(&outcome_text).expect("decodes")
    });
}
