//! The power model and budget.
//!
//! The paper: "Experiments with and without power constraints are presented
//! for each system. This constraint is defined as a percentage of the sum
//! of all cores power consumption. Thus, for example, a power limit of 50%
//! indicates that the power limit corresponds to half of the sum of all
//! cores power consumption in test mode."
//!
//! A running test session draws: the CUT's test-mode power, the driving
//! interface's active power (the BIST application, for a processor), and
//! the NoC routers its path keeps busy (the per-router packet power of the
//! paper's NoC characterisation, "added to each router the packet passes
//! through").

use crate::cut::CoreUnderTest;
use crate::interface::TestInterface;
use crate::path::TestPath;
use noctest_noc::Mesh;

/// The power budget for concurrent testing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PowerBudget {
    /// No constraint (the paper's "no power limit" series).
    #[default]
    Unlimited,
    /// A hard cap in the same units as the cores' power annotations.
    Limit(f64),
}

impl PowerBudget {
    /// The paper's percentage form: `fraction` (e.g. `0.5` for the 50%
    /// series) of the sum of all cores' test power.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not positive and finite.
    #[must_use]
    pub fn fraction_of(total_core_power: f64, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction.is_finite(),
            "power fraction must be positive and finite"
        );
        PowerBudget::Limit(total_core_power * fraction)
    }

    /// `true` if `draw` fits under the budget.
    #[must_use]
    pub fn allows(&self, draw: f64) -> bool {
        match self {
            PowerBudget::Unlimited => true,
            PowerBudget::Limit(cap) => draw <= *cap + 1e-9,
        }
    }

    /// The numeric cap, if limited.
    #[must_use]
    pub fn cap(&self) -> Option<f64> {
        match self {
            PowerBudget::Unlimited => None,
            PowerBudget::Limit(cap) => Some(*cap),
        }
    }
}

/// Power cost coefficients of the platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Mean power one streaming test session deposits in each router on
    /// its path (from the NoC characterisation pass).
    pub noc_power_per_router: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            noc_power_per_router: 25.0,
        }
    }
}

impl PowerModel {
    /// Instantaneous power drawn by one running session.
    #[must_use]
    pub fn session_power(
        &self,
        mesh: &Mesh,
        cut: &CoreUnderTest,
        iface: &TestInterface,
        path: &TestPath,
    ) -> f64 {
        cut.power
            + iface.active_power()
            + self.noc_power_per_router * path.router_count(mesh) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{CutId, CutKind};
    use noctest_cpu::ProcessorProfile;
    use noctest_noc::{NodeId, RoutingKind};

    #[test]
    fn fraction_budget_matches_paper_definition() {
        let b = PowerBudget::fraction_of(6472.0, 0.5);
        assert_eq!(b.cap(), Some(3236.0));
        assert!(b.allows(3236.0));
        assert!(!b.allows(3236.1));
        assert!(PowerBudget::Unlimited.allows(f64::MAX));
        assert_eq!(PowerBudget::Unlimited.cap(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fraction_panics() {
        let _ = PowerBudget::fraction_of(100.0, 0.0);
    }

    #[test]
    fn session_power_sums_components() {
        let mesh = Mesh::new(4, 4).unwrap();
        let cut = CoreUnderTest {
            id: CutId(0),
            name: "x".into(),
            node: NodeId::new(5),
            kind: CutKind::Core,
            bits_in: 100,
            bits_out: 100,
            patterns: 10,
            power: 700.0,
            shift_in_bound: 0,
            shift_out_bound: 0,
        };
        let iface = TestInterface::Processor {
            index: 0,
            node: NodeId::new(0),
            profile: ProcessorProfile::plasma(),
        };
        let path = TestPath::compute(&mesh, RoutingKind::Xy, &iface, &cut);
        let model = PowerModel {
            noc_power_per_router: 10.0,
        };
        let p = model.session_power(&mesh, &cut, &iface, &path);
        let routers = path.router_count(&mesh) as f64;
        assert!((p - (700.0 + 120.0 + 10.0 * routers)).abs() < 1e-9);
    }
}
