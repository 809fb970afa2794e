//! Canonical request keys: content hashes of [`PlanRequest`]s.
//!
//! The service tier needs two notions of request identity:
//!
//! * [`RequestKey`] — the *full* content hash over the request's
//!   canonical JSON form (every member, including the name). Two requests
//!   share a key exactly when they would plan the same thing and label the
//!   outcome identically, which is what journal deduplication needs: a
//!   journaled outcome can be served for a matching resubmission
//!   byte-identically. The hash is 64-bit, so the journal stores the
//!   canonical request text alongside it and dedupe double-checks exact
//!   equality — a collision degrades to a replan, never to a wrong answer.
//! * [`affinity_of_doc`] — a *coarse* hash over only the SoC source and mesh,
//!   ignoring scheduler, budget, timing knobs and the label. Near-duplicate
//!   requests (the same SoC with a budget nudged or a different scheduler)
//!   share an affinity key, and the shard ring routes them to the same
//!   executor shard — which is where per-shard caches (the process-wide
//!   profile cache today, a plan cache tomorrow) pay off.

use noctest_core::json::Json;
use noctest_core::plan::PlanRequest;

// One hash implementation for the whole workspace: the byte hash (and the
// avalanche mixer the shard ring uses) live in `noctest_core::hashing`;
// serve re-exports it so existing callers keep their import path.
pub use noctest_core::hashing::fnv1a;

/// The canonical content key of one [`PlanRequest`]: FNV-1a over the
/// request's compact canonical JSON ([`PlanRequest::to_json`] →
/// [`Json::compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey(pub u64);

impl RequestKey {
    /// The key of a request (hash of [`canonical_text`]).
    #[must_use]
    pub fn of(request: &PlanRequest) -> Self {
        RequestKey(fnv1a(canonical_text(request).as_bytes()))
    }

    /// The key as the 16-digit lower-hex string used on the wire and in
    /// journal records.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the 16-digit lower-hex wire form.
    #[must_use]
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(RequestKey)
    }
}

impl std::fmt::Display for RequestKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The canonical textual form a request is keyed (and journalled) by:
/// its compact canonical JSON. `from_json(parse(canonical_text(r)))`
/// reproduces `r` exactly, so the journal can replay submissions.
#[must_use]
pub fn canonical_text(request: &PlanRequest) -> String {
    request.to_json().compact()
}

/// The shard-affinity key of a request's canonical form
/// ([`PlanRequest::to_json`]): FNV-1a over only its `soc` and `mesh`
/// members. Requests that differ solely in scheduler, budget, priority,
/// timing, validation or label share an affinity key and land on the
/// same shard.
#[must_use]
pub fn affinity_of_doc(doc: &Json) -> u64 {
    let mut text = String::new();
    for member in ["soc", "mesh"] {
        if let Some(value) = doc.get(member) {
            text.push_str(&value.compact());
            text.push('\n');
        }
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noctest_core::BudgetSpec;

    fn base() -> PlanRequest {
        PlanRequest::benchmark("d695", 4, 4)
            .with_processors("plasma", 2, 2)
            .with_budget(BudgetSpec::Fraction(0.6))
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn request_key_is_stable_and_name_sensitive() {
        let a = RequestKey::of(&base().with_name("a"));
        assert_eq!(a, RequestKey::of(&base().with_name("a")));
        // The full key covers the label: a renamed request produces a
        // differently-labelled outcome, so it must not dedupe.
        assert_ne!(a, RequestKey::of(&base().with_name("b")));
        // Hex round-trips.
        assert_eq!(RequestKey::from_hex(&a.to_hex()), Some(a));
        assert_eq!(RequestKey::from_hex("xyz"), None);
        assert_eq!(RequestKey::from_hex("0123"), None);
    }

    #[test]
    fn affinity_ignores_everything_but_soc_and_mesh() {
        let affinity_of = |request: PlanRequest| affinity_of_doc(&request.to_json());
        let cold = affinity_of(base());
        // Same SoC + mesh, different scheduler/budget/name: same shard.
        assert_eq!(cold, affinity_of(base().with_scheduler("smart")));
        assert_eq!(cold, affinity_of(base().with_budget(BudgetSpec::Unlimited)));
        assert_eq!(cold, affinity_of(base().with_name("relabelled")));
        // A different mesh is a different stream of work.
        assert_ne!(cold, affinity_of(PlanRequest::benchmark("d695", 5, 5)));
    }

    #[test]
    fn canonical_text_round_trips_through_from_json() {
        let request = base().with_name("round");
        let text = canonical_text(&request);
        let back = PlanRequest::from_json_str(&text).unwrap();
        assert_eq!(back, request);
        assert_eq!(canonical_text(&back), text);
    }
}
