//! Streaming plan execution: submit a batch of requests to the job
//! executor, watch results arrive in completion order (not submission
//! order), prioritise one job, cancel another, and print the NDJSON
//! event form a planning daemon would emit.
//!
//! ```text
//! cargo run --example streaming_execution
//! ```

use std::sync::{mpsc, Arc};

use noctest::core::plan::exec::{EventCollector, EventSink, Executor, JobResult, PlanEvent};
use noctest::core::plan::{PlanRequest, RequestMatrix};
use noctest::core::BudgetSpec;

/// Forwards every terminal event to the printing loop in `main`.
struct Terminal(mpsc::Sender<PlanEvent>);

impl EventSink for Terminal {
    fn emit(&self, event: &PlanEvent) {
        if event.is_terminal() {
            // `main` keeps the receiver until the executor is gone.
            let _ = self.0.send(event.clone());
        }
    }
}

fn main() {
    // Collect every lifecycle event; a daemon would use NdjsonSink to
    // write the same stream to stdout or a socket.
    let collector = Arc::new(EventCollector::new());
    let (terminal_tx, terminal_rx) = mpsc::channel();
    let executor = Executor::builder()
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .sink(Arc::new(Terminal(terminal_tx)))
        .build();

    // The d695 reuse sweep as independent jobs. The serial baseline is
    // submitted at high priority, and one job is cancelled mid-batch.
    let matrix =
        RequestMatrix::new(PlanRequest::benchmark("d695", 4, 4).with_processors("plasma", 6, 0))
            .vary_reused(&[0, 2, 4, 6])
            .vary_budget(&[BudgetSpec::Unlimited, BudgetSpec::Fraction(0.5)])
            .build();
    let handles: Vec<_> = matrix
        .into_iter()
        .map(|request| executor.submit(request))
        .collect();
    let baseline = executor.submit_with_priority(
        PlanRequest::benchmark("d695", 4, 4)
            .with_scheduler("serial")
            .with_name("baseline"),
        10,
    );
    handles[3].cancel();

    // Results stream back as they complete; the batch barrier is gone.
    for event in terminal_rx.iter().take(handles.len() + 1) {
        let (job, request) = (event.job(), event.request());
        match &event {
            PlanEvent::Completed { outcome, .. } => println!(
                "job {job:>2} {request:<28} makespan {:>7} cycles ({:>5.1}% reduction)",
                outcome.makespan, outcome.reduction_percent
            ),
            PlanEvent::Failed { error, .. } => {
                println!("job {job:>2} {request:<28} FAILED: {error}")
            }
            _ => println!("job {job:>2} {request:<28} cancelled"),
        }
    }
    assert!(matches!(baseline.wait(), JobResult::Completed(_)));

    // The same lifecycle, as the NDJSON lines `plan-serve` would emit
    // (completed events elided for brevity).
    println!("\nevent stream (NDJSON, outcome payloads elided):");
    for event in collector.take() {
        if event.kind() != "completed" {
            println!("{}", event.to_ndjson_line());
        }
    }
}
