//! Integration tests pinning the *shape* of the paper's Figure 1 and its
//! headline claims. Absolute cycle counts depend on the calibration
//! (README, "Reproducing the paper"); these tests assert the qualitative
//! structure that must survive any recalibration:
//!
//! * reusing processors reduces test time on every system;
//! * the small system (d695) gains less than the large one (p93791);
//! * the power constraint can only increase test time, and the
//!   power-constrained best reduction is below the unconstrained one;
//! * p22810 shows the greedy irregularity the paper reports;
//! * noproc test times are ordered d695 < p22810 < p93791 roughly like
//!   the paper's axes (~160k / ~900k / ~1.4M).

use noctest_bench::{figure1_panel_greedy, Figure1Panel, SystemId};

fn panels() -> Vec<Figure1Panel> {
    SystemId::ALL
        .iter()
        .map(|&id| figure1_panel_greedy(id, "leon").expect("panel computes"))
        .collect()
}

#[test]
fn processors_reduce_test_time_everywhere() {
    for panel in panels() {
        let noproc = panel.points[0].no_limit;
        let best = panel.points.iter().map(|p| p.no_limit).min().unwrap();
        assert!(
            best < noproc,
            "{}: best {} not below noproc {}",
            panel.system,
            best,
            noproc
        );
        // The paper's weakest claim is d695's 28%; accept anything >= 15%.
        let reduction = panel.best_reduction_percent();
        assert!(
            reduction >= 15.0,
            "{}: reduction {reduction}% below the paper's neighbourhood",
            panel.system
        );
    }
}

#[test]
fn larger_systems_gain_more() {
    let all = panels();
    let d695 = all.iter().find(|p| p.system == "d695").unwrap();
    let p93791 = all.iter().find(|p| p.system == "p93791").unwrap();
    assert!(
        p93791.best_reduction_percent() > d695.best_reduction_percent(),
        "p93791 ({:.1}%) must gain more than d695 ({:.1}%)",
        p93791.best_reduction_percent(),
        d695.best_reduction_percent()
    );
}

#[test]
fn power_limit_never_helps_and_caps_the_gain() {
    for panel in panels() {
        for point in &panel.points {
            assert!(
                point.limited_50 >= point.no_limit,
                "{} at {} processors: 50% limit ({}) beat no limit ({})",
                panel.system,
                point.reused,
                point.limited_50,
                point.no_limit
            );
        }
        assert!(
            panel.best_reduction_percent_limited() <= panel.best_reduction_percent() + 1e-9,
            "{}: power-limited reduction exceeds unconstrained",
            panel.system
        );
    }
}

#[test]
fn p22810_shows_the_greedy_irregularity() {
    // "For the p22810_leon system, we get some test time reduction, but it
    // is not regular because of the greedy behavior of the scheduling
    // algorithm."
    let panel = figure1_panel_greedy(SystemId::P22810, "leon").expect("panel computes");
    assert!(
        panel.is_irregular(),
        "p22810 sweep unexpectedly monotonic: {:?}",
        panel.points
    );
    // Despite the irregularity there is still a clear net gain.
    assert!(panel.best_reduction_percent() > 20.0);
}

#[test]
fn noproc_times_are_ordered_like_the_paper() {
    let all = panels();
    let noproc = |name: &str| all.iter().find(|p| p.system == name).unwrap().points[0].no_limit;
    let d695 = noproc("d695");
    let p22810 = noproc("p22810");
    let p93791 = noproc("p93791");
    assert!(d695 < p22810 && p22810 < p93791);
    // Paper axes: ~160k / ~900k / ~1.4M. Accept a generous band around
    // the calibrated values (`figure1 --summary`, README's "Reproducing
    // the paper", prints the exact numbers).
    assert!((150_000..600_000).contains(&d695), "d695 noproc {d695}");
    assert!(
        (700_000..1_600_000).contains(&p22810),
        "p22810 noproc {p22810}"
    );
    assert!(
        (1_100_000..2_200_000).contains(&p93791),
        "p93791 noproc {p93791}"
    );
}

#[test]
fn plasma_panels_also_improve() {
    for id in SystemId::ALL {
        let panel = figure1_panel_greedy(id, "plasma").expect("panel computes");
        assert!(
            panel.best_reduction_percent() > 15.0,
            "{} / plasma: reduction {:.1}%",
            id.name(),
            panel.best_reduction_percent()
        );
    }
}
