//! The paper's Fig. 5 scheduling race, live.
//!
//! Three tasks on two workers: A (1s) and B (2s) are independent; C (0.5s)
//! depends on A. In a correct simulation C starts the moment A completes
//! (t = 1.0). Without mitigation, B — at the front of the Task Execution
//! Queue — usually returns before C has inserted itself, so C reads an
//! already-advanced clock and lands at t = 2.0: the trace is wrong.
//!
//! ```text
//! cargo run --release --example race_condition
//! ```

use std::sync::Arc;
use supersim::prelude::*;
use supersim::trace::ascii;

fn run(mitigation: RaceMitigation) -> Trace {
    let mut models = ModelRegistry::new();
    models.insert("A", KernelModel::constant(1.0));
    models.insert("B", KernelModel::constant(2.0));
    models.insert("C", KernelModel::constant(0.5));
    let session: Arc<SimSession> = SimSession::new(
        models,
        SimConfig {
            seed: 1,
            mitigation,
            ..SimConfig::default()
        },
    );

    let rt = Runtime::new(RuntimeConfig::simple(2));
    session.attach_quiesce(rt.probe());
    for (label, accesses) in [
        ("A", vec![Access::write(DataId(0))]),
        ("B", vec![Access::write(DataId(1))]),
        ("C", vec![Access::read(DataId(0))]),
    ] {
        rt.submit(TaskDesc::new(label, accesses, session.planned_body(label)));
    }
    rt.seal();
    rt.wait_all().unwrap();
    session.finish_trace(2)
}

fn main() {
    for mitigation in [
        RaceMitigation::Quiesce,
        RaceMitigation::sleep_yield_default(),
        RaceMitigation::None,
    ] {
        let trace = run(mitigation);
        let c = trace.spans().iter().find(|e| e.kernel == "C").unwrap();
        let verdict = if (c.start - 1.0).abs() < 1e-9 {
            "correct: C starts when A completes"
        } else {
            "RACE: C read an already-advanced clock"
        };
        println!(
            "mitigation = {:<12} C.start = {:.2}  makespan = {:.2}   [{verdict}]",
            mitigation.name(),
            c.start,
            trace.makespan()
        );
        print!("{}", ascii::render(&trace, 64));
        println!();
    }
}
