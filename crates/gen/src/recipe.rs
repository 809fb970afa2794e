//! [`SocRecipe`]: seeded, fully deterministic synthetic SoC generation.
//!
//! A recipe is a *distribution* over SoCs: core count, scan-chain
//! count/length shapes, pattern-count ranges and a power profile, drawn
//! from weighted [`CoreClass`] mixtures. Calling [`SocRecipe::generate`]
//! with a seed collapses the distribution to one concrete
//! [`noctest_itc02::SocDesc`]; the same recipe and seed always produce the
//! same model, and [`SocRecipe::generate_text`] serialises it through the
//! canonical writer to byte-identical `.soc` text.
//!
//! Five named families cover the populations the scheduler comparisons
//! need (see the crate docs for their intent): [`SocRecipe::d695_like`],
//! [`SocRecipe::scaled_industrial`], [`SocRecipe::power_dominated`],
//! [`SocRecipe::one_giant_core`] and [`SocRecipe::wide_shallow`].

use noctest_core::hashing::fnv1a;
use noctest_itc02::data::balanced_chains;
use noctest_itc02::{write_soc, Module, ModuleId, ScanUse, SocDesc, TamUse, TestDesc};
use noctest_noc::rng::SplitMix64;

/// The named recipe families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecipeFamily {
    /// Moderate scan cores with a light tail — the d695 shape.
    D695Like,
    /// Long-tail industrial mix: a few dominant scan cores, a medium
    /// body, a tail of small and logic-only cores (the p22810/p93791
    /// shape).
    ScaledIndustrial,
    /// A hot minority of cores draws several times the base power, so a
    /// fractional budget binds early.
    PowerDominated,
    /// One core carries most of the test volume; everything else is tiny
    /// (the makespan is a single-session lower bound).
    OneGiantCore,
    /// Many short scan chains on many small cores: high session counts,
    /// low per-session volume.
    WideShallow,
}

impl RecipeFamily {
    /// All five families, in declaration order.
    pub const ALL: [RecipeFamily; 5] = [
        RecipeFamily::D695Like,
        RecipeFamily::ScaledIndustrial,
        RecipeFamily::PowerDominated,
        RecipeFamily::OneGiantCore,
        RecipeFamily::WideShallow,
    ];

    /// Token-safe slug (usable inside `.soc` names).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            RecipeFamily::D695Like => "d695like",
            RecipeFamily::ScaledIndustrial => "industrial",
            RecipeFamily::PowerDominated => "powerdom",
            RecipeFamily::OneGiantCore => "giant",
            RecipeFamily::WideShallow => "wideshallow",
        }
    }

    /// The family's default recipe at a size scale (`cores` is the
    /// *upper* end of the core-count range; the lower end is about 3/4 of
    /// it).
    #[must_use]
    pub fn recipe(self, cores: u32) -> SocRecipe {
        match self {
            RecipeFamily::D695Like => SocRecipe::d695_like(cores),
            RecipeFamily::ScaledIndustrial => SocRecipe::scaled_industrial(cores),
            RecipeFamily::PowerDominated => SocRecipe::power_dominated(cores),
            RecipeFamily::OneGiantCore => SocRecipe::one_giant_core(cores),
            RecipeFamily::WideShallow => SocRecipe::wide_shallow(cores),
        }
    }
}

/// One weighted component of a recipe's core mixture. Every range is
/// inclusive; a `scan_total` range of `(0, 0)` makes the class logic-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreClass {
    /// Relative share of the SoC's cores drawn from this class.
    pub weight: u32,
    /// Total scan flip-flops per core.
    pub scan_total: (u32, u32),
    /// Scan chain count per core (clamped to `scan_total` so no chain is
    /// empty).
    pub scan_chains: (u32, u32),
    /// Test patterns per core.
    pub patterns: (u32, u32),
    /// Test-mode power annotation per core.
    pub power: (u32, u32),
}

/// A deterministic distribution over synthetic SoCs.
///
/// ```
/// use noctest_gen::SocRecipe;
///
/// let recipe = SocRecipe::d695_like(8);
/// let soc = recipe.generate(42);
/// assert_eq!(soc, recipe.generate(42)); // same seed, same model
/// assert_eq!(recipe.generate_text(42), recipe.generate_text(42));
/// assert!(soc.cores().count() >= 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocRecipe {
    /// Token-safe name prefix; the generated SoC is named
    /// `{name}-s{seed:016x}`.
    pub name: String,
    /// The family this recipe was derived from (informative; the knobs
    /// below are what generation reads).
    pub family: RecipeFamily,
    /// Core count range (level-0 top module excluded).
    pub cores: (u32, u32),
    /// Primary input count range per core.
    pub inputs: (u32, u32),
    /// Primary output count range per core.
    pub outputs: (u32, u32),
    /// Bidirectional port count range per core.
    pub bidirs: (u32, u32),
    /// The weighted core mixture (class 0 first: quota assignment gives
    /// every class at least one core when the SoC is large enough).
    pub classes: Vec<CoreClass>,
}

impl SocRecipe {
    /// The d695 shape: a homogeneous body of moderate scan cores plus a
    /// light logic tail.
    #[must_use]
    pub fn d695_like(cores: u32) -> Self {
        SocRecipe {
            name: format!("gen-{}", RecipeFamily::D695Like.slug()),
            family: RecipeFamily::D695Like,
            cores: size_range(cores),
            inputs: (10, 60),
            outputs: (10, 60),
            bidirs: (0, 8),
            classes: vec![
                CoreClass {
                    weight: 4,
                    scan_total: (200, 1800),
                    scan_chains: (1, 16),
                    patterns: (12, 120),
                    power: (250, 1200),
                },
                CoreClass {
                    weight: 1,
                    scan_total: (0, 0),
                    scan_chains: (0, 0),
                    patterns: (10, 80),
                    power: (90, 350),
                },
            ],
        }
    }

    /// The p22810/p93791 long-tail shape: dominant scan cores, a medium
    /// body, a tail of small and logic-only cores.
    #[must_use]
    pub fn scaled_industrial(cores: u32) -> Self {
        SocRecipe {
            name: format!("gen-{}", RecipeFamily::ScaledIndustrial.slug()),
            family: RecipeFamily::ScaledIndustrial,
            cores: size_range(cores),
            inputs: (10, 180),
            outputs: (10, 200),
            bidirs: (0, 12),
            classes: vec![
                CoreClass {
                    weight: 1,
                    scan_total: (2500, 6000),
                    scan_chains: (12, 28),
                    patterns: (100, 250),
                    power: (700, 1400),
                },
                CoreClass {
                    weight: 3,
                    scan_total: (300, 1500),
                    scan_chains: (2, 10),
                    patterns: (40, 160),
                    power: (250, 700),
                },
                CoreClass {
                    weight: 2,
                    scan_total: (0, 0),
                    scan_chains: (0, 0),
                    patterns: (30, 120),
                    power: (80, 300),
                },
            ],
        }
    }

    /// A hot minority draws 3-5x the base power. No single core exceeds
    /// ~35% of the SoC total, so the paper's 50% fractional budget stays
    /// feasible while still forcing serialisation.
    #[must_use]
    pub fn power_dominated(cores: u32) -> Self {
        SocRecipe {
            name: format!("gen-{}", RecipeFamily::PowerDominated.slug()),
            family: RecipeFamily::PowerDominated,
            cores: size_range(cores),
            inputs: (10, 80),
            outputs: (10, 80),
            bidirs: (0, 6),
            classes: vec![
                CoreClass {
                    weight: 1,
                    scan_total: (400, 2000),
                    scan_chains: (2, 12),
                    patterns: (30, 120),
                    power: (1500, 2400),
                },
                CoreClass {
                    weight: 3,
                    scan_total: (100, 900),
                    scan_chains: (1, 8),
                    patterns: (20, 100),
                    power: (300, 600),
                },
            ],
        }
    }

    /// One core carries most of the test volume (its power stays
    /// moderate, so budgets bind on concurrency, not on the giant alone).
    #[must_use]
    pub fn one_giant_core(cores: u32) -> Self {
        SocRecipe {
            name: format!("gen-{}", RecipeFamily::OneGiantCore.slug()),
            family: RecipeFamily::OneGiantCore,
            cores: size_range(cores),
            inputs: (8, 40),
            outputs: (8, 40),
            bidirs: (0, 4),
            classes: vec![
                CoreClass {
                    weight: 1,
                    scan_total: (5000, 9000),
                    scan_chains: (8, 24),
                    patterns: (150, 300),
                    power: (600, 900),
                },
                CoreClass {
                    weight: 7,
                    scan_total: (50, 400),
                    scan_chains: (1, 4),
                    patterns: (10, 50),
                    power: (150, 450),
                },
            ],
        }
    }

    /// Many short chains on many small cores: sessions are numerous and
    /// cheap, so concurrency (not volume) dominates the makespan.
    #[must_use]
    pub fn wide_shallow(cores: u32) -> Self {
        SocRecipe {
            name: format!("gen-{}", RecipeFamily::WideShallow.slug()),
            family: RecipeFamily::WideShallow,
            cores: size_range(cores),
            inputs: (16, 64),
            outputs: (16, 64),
            bidirs: (0, 8),
            classes: vec![CoreClass {
                weight: 1,
                scan_total: (64, 512),
                scan_chains: (8, 16),
                patterns: (8, 60),
                power: (150, 600),
            }],
        }
    }

    /// Relabels the recipe (builder style). The name must be token-safe
    /// (it becomes part of a `.soc` `SocName`).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The deterministic name of the SoC [`SocRecipe::generate`] produces
    /// for `seed`.
    #[must_use]
    pub fn soc_name(&self, seed: u64) -> String {
        format!("{}-s{seed:016x}", self.name)
    }

    /// Generates the concrete SoC for `seed`. Fully deterministic: the
    /// same recipe and seed always return the same model (and, via
    /// [`SocRecipe::generate_text`], byte-identical `.soc` text).
    ///
    /// # Panics
    ///
    /// Panics if the recipe is degenerate: no classes, an inverted range,
    /// or a zero-pattern class (unplannable cores).
    #[must_use]
    pub fn generate(&self, seed: u64) -> SocDesc {
        assert!(!self.classes.is_empty(), "recipe has no core classes");
        // Mix the recipe identity into the stream so two different
        // recipes sharing a seed do not produce correlated SoCs.
        let mut rng =
            SplitMix64::new(seed ^ fnv1a(self.name.as_bytes()) ^ family_salt(self.family));

        let n = sample(&mut rng, self.cores);
        assert!(n > 0, "recipe generates zero cores");
        let quotas = class_quotas(&self.classes, n);

        let mut modules = vec![Module::new(ModuleId(0), 0, 0, 0, 0, vec![], vec![])];
        let mut id = 0u32;
        for (class, quota) in self.classes.iter().zip(quotas) {
            for _ in 0..quota {
                id += 1;
                modules.push(generate_core(&mut rng, self, class, id));
            }
        }
        SocDesc::new(self.soc_name(seed), modules)
    }

    /// The generated SoC serialised through [`noctest_itc02::write_soc`].
    /// Byte-identical for the same recipe and seed.
    #[must_use]
    pub fn generate_text(&self, seed: u64) -> String {
        write_soc(&self.generate(seed))
    }
}

/// The default core-count range for a family preset: `[3/4·max, max]`,
/// never below one core.
fn size_range(cores: u32) -> (u32, u32) {
    let hi = cores.max(1);
    (((hi * 3) / 4).max(1), hi)
}

fn generate_core(rng: &mut SplitMix64, recipe: &SocRecipe, class: &CoreClass, id: u32) -> Module {
    let patterns = sample(rng, class.patterns);
    assert!(patterns > 0, "core class generates zero-pattern cores");
    let scan_total = sample(rng, class.scan_total);
    let scan_chains = if scan_total == 0 {
        Vec::new()
    } else {
        // Clamp the chain count so no chain would be empty.
        let chains = sample(rng, class.scan_chains).clamp(1, scan_total);
        balanced_chains(scan_total, chains)
    };
    let test = TestDesc {
        id: 1,
        patterns,
        scan_use: if scan_total > 0 {
            ScanUse::Yes
        } else {
            ScanUse::No
        },
        tam_use: TamUse::Yes,
    };
    Module::new(
        ModuleId(id),
        1,
        sample(rng, recipe.inputs),
        sample(rng, recipe.outputs),
        sample(rng, recipe.bidirs),
        scan_chains,
        vec![test],
    )
    .with_power(f64::from(sample(rng, class.power)))
}

/// Samples an inclusive range (degenerate ranges cost one RNG draw too,
/// keeping the stream layout independent of the knob values).
fn sample(rng: &mut SplitMix64, (lo, hi): (u32, u32)) -> u32 {
    assert!(lo <= hi, "inverted recipe range {lo}..={hi}");
    rng.range_u32(lo, hi)
}

/// Splits `n` cores over the classes proportionally to their weights
/// (largest-remainder rounding), then guarantees every class at least one
/// core when `n` allows — a mixture must not silently drop its dominant
/// class on small SoCs.
fn class_quotas(classes: &[CoreClass], n: u32) -> Vec<u32> {
    let total: u64 = classes.iter().map(|c| u64::from(c.weight)).sum();
    assert!(total > 0, "core class weights sum to zero");
    let mut quotas: Vec<u32> = classes
        .iter()
        .map(|c| ((u64::from(n) * u64::from(c.weight)) / total) as u32)
        .collect();
    let mut assigned: u32 = quotas.iter().sum();
    // Distribute the rounding remainder to the earliest classes.
    let len = quotas.len();
    let mut i = 0;
    while assigned < n {
        quotas[i % len] += 1;
        assigned += 1;
        i += 1;
    }
    if n as usize >= classes.len() {
        for i in 0..quotas.len() {
            if quotas[i] == 0 {
                let donor = (0..quotas.len())
                    .max_by_key(|&j| quotas[j])
                    .expect("classes is non-empty");
                quotas[donor] -= 1;
                quotas[i] += 1;
            }
        }
    }
    quotas
}

/// FNV-1a over bytes — a tiny stable hash for stream separation (not a
/// general-purpose hasher).
fn family_salt(family: RecipeFamily) -> u64 {
    fnv1a(family.slug().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noctest_itc02::parse_soc;

    #[test]
    fn same_seed_same_model_and_text() {
        for family in RecipeFamily::ALL {
            let recipe = family.recipe(8);
            assert_eq!(recipe.generate(7), recipe.generate(7), "{family:?}");
            assert_eq!(
                recipe.generate_text(7),
                recipe.generate_text(7),
                "{family:?}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let recipe = SocRecipe::d695_like(8);
        assert_ne!(recipe.generate(1), recipe.generate(2));
        // Names alone must differ even if structures coincided.
        assert_ne!(recipe.soc_name(1), recipe.soc_name(2));
    }

    #[test]
    fn different_families_differ_on_the_same_seed() {
        let a = SocRecipe::d695_like(8).generate(5);
        let b = SocRecipe::wide_shallow(8).generate(5);
        assert_ne!(a.name(), b.name());
        // The streams are salted per family, so the structures diverge
        // too (not just the names).
        let a_scan: Vec<u32> = a.cores().map(|m| m.scan_total()).collect();
        let b_scan: Vec<u32> = b.cores().map(|m| m.scan_total()).collect();
        assert_ne!(a_scan, b_scan);
    }

    #[test]
    fn generated_text_parses_back_to_the_model() {
        for family in RecipeFamily::ALL {
            let recipe = family.recipe(10);
            let soc = recipe.generate(99);
            let parsed = parse_soc(&recipe.generate_text(99)).expect("generated text parses");
            assert_eq!(parsed, soc, "{family:?}");
        }
    }

    #[test]
    fn every_core_is_plannable() {
        for family in RecipeFamily::ALL {
            let recipe = family.recipe(9);
            let soc = recipe.generate(3);
            let (lo, hi) = recipe.cores;
            let count = soc.cores().count() as u32;
            assert!((lo..=hi).contains(&count), "{family:?}: {count} cores");
            for core in soc.cores() {
                assert!(core.total_patterns() > 0, "{family:?}");
                assert!(core.uses_tam(), "{family:?}");
                assert!(core.power().unwrap_or(0.0) > 0.0, "{family:?}");
                assert!(core.scan_chains().iter().all(|&l| l > 0), "{family:?}");
            }
        }
    }

    #[test]
    fn giant_family_has_a_dominant_core() {
        let soc = SocRecipe::one_giant_core(8).generate(11);
        let mut volumes: Vec<u64> = soc.cores().map(|m| m.test_volume_bits()).collect();
        volumes.sort_unstable();
        let giant = *volumes.last().unwrap();
        let rest: u64 = volumes.iter().rev().skip(1).sum();
        assert!(
            giant > rest,
            "giant core ({giant} bits) should outweigh the rest ({rest} bits)"
        );
    }

    #[test]
    fn power_dominated_budget_stays_feasible() {
        // No single core may exceed half the SoC total, or the paper's
        // 50% fractional budget would be unplannable.
        for seed in 0..16 {
            let soc = SocRecipe::power_dominated(8).generate(seed);
            let total = soc.total_test_power();
            let max = soc.cores().filter_map(|m| m.power()).fold(0.0f64, f64::max);
            assert!(max < 0.5 * total, "seed {seed}: {max} vs total {total}");
        }
    }

    #[test]
    fn quotas_cover_every_class() {
        let classes = SocRecipe::scaled_industrial(12).classes;
        let quotas = class_quotas(&classes, 12);
        assert_eq!(quotas.iter().sum::<u32>(), 12);
        assert!(quotas.iter().all(|&q| q > 0));
        // Small SoCs may not cover every class, but quotas still sum.
        let tiny = class_quotas(&classes, 2);
        assert_eq!(tiny.iter().sum::<u32>(), 2);
    }

    #[test]
    #[should_panic(expected = "no core classes")]
    fn empty_mixture_panics() {
        let mut r = SocRecipe::d695_like(6);
        r.classes.clear();
        let _ = r.generate(0);
    }
}
