//! Property-based tests for D4M associative arrays and key-set algebra.

use obscor_assoc::{io, Assoc, KeySet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_keys() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{1,6}", 0..40)
}

fn arb_triples() -> impl Strategy<Value = Vec<(String, String, String)>> {
    prop::collection::vec(("[a-z]{1,5}", "[a-z]{1,4}", "[a-zA-Z0-9 ]{0,8}"), 0..60)
}

proptest! {
    /// Intersection is commutative, union is commutative.
    #[test]
    fn set_ops_commute(a in arb_keys(), b in arb_keys()) {
        let (ka, kb): (KeySet, KeySet) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(ka.intersect(&kb), kb.intersect(&ka));
        prop_assert_eq!(ka.union(&kb), kb.union(&ka));
    }

    /// Intersection and union are idempotent and absorb.
    #[test]
    fn set_ops_idempotent(a in arb_keys()) {
        let ka: KeySet = a.into_iter().collect();
        prop_assert_eq!(ka.intersect(&ka).clone(), ka.clone());
        prop_assert_eq!(ka.union(&ka).clone(), ka.clone());
        prop_assert!(ka.minus(&ka).is_empty());
    }

    /// |A| = |A∩B| + |A\B| — the partition law behind every correlation
    /// fraction in the paper.
    #[test]
    fn partition_law(a in arb_keys(), b in arb_keys()) {
        let (ka, kb): (KeySet, KeySet) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(ka.len(), ka.intersect(&kb).len() + ka.minus(&kb).len());
    }

    /// Inclusion-exclusion: |A∪B| = |A| + |B| − |A∩B|.
    #[test]
    fn inclusion_exclusion(a in arb_keys(), b in arb_keys()) {
        let (ka, kb): (KeySet, KeySet) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(
            ka.union(&kb).len() + ka.intersect(&kb).len(),
            ka.len() + kb.len()
        );
    }

    /// Overlap fractions live in [0, 1].
    #[test]
    fn overlap_fraction_bounded(a in arb_keys(), b in arb_keys()) {
        let (ka, kb): (KeySet, KeySet) = (a.into_iter().collect(), b.into_iter().collect());
        if let Some(f) = ka.overlap_fraction(&kb) {
            prop_assert!((0.0..=1.0).contains(&f));
        } else {
            prop_assert!(ka.is_empty());
        }
    }

    /// Prefix selection returns exactly the matching keys.
    #[test]
    fn prefix_selection_exact(a in arb_keys(), p in "[a-z]{0,3}") {
        let ka: KeySet = a.iter().cloned().collect();
        let selected = ka.with_prefix(&p);
        for k in ka.iter() {
            prop_assert_eq!(selected.contains(k), k.starts_with(&p));
        }
    }

    /// Assoc construction: nnz never exceeds input length, and every
    /// surviving triple is retrievable.
    #[test]
    fn assoc_construction_consistent(t in arb_triples()) {
        let a = Assoc::from_triples_last(t.clone());
        prop_assert!(a.nnz() <= t.len());
        // Last-wins: the final triple of the input is always what's stored
        // at its coordinate.
        if let Some((r, c, v)) = t.last() {
            prop_assert_eq!(a.get(r, c), Some(v));
        }
        // All stored entries came from the input.
        for (r, c, v) in a.iter() {
            prop_assert!(t.iter().any(|(tr, tc, tv)| tr == r && tc == c && tv == v));
        }
    }

    /// `from_triples_last` equals a `BTreeMap` last-wins reference on
    /// inputs dense in duplicate coordinates: same row axis, same column
    /// axis, same `get` on every probe, same row-major iteration order.
    #[test]
    fn assoc_last_wins_matches_btreemap(t in prop::collection::vec(
        ("[a-d]{1,2}", "[x-z]", "[0-9]{1,2}"), 0..80)
    ) {
        let a = Assoc::from_triples_last(t.clone());
        a.check_invariants().unwrap();
        let mut reference: BTreeMap<(String, String), String> = BTreeMap::new();
        for (r, c, v) in &t {
            reference.insert((r.clone(), c.clone()), v.clone());
        }
        let rows: BTreeSet<&str> = reference.keys().map(|(r, _)| r.as_str()).collect();
        let cols: BTreeSet<&str> = reference.keys().map(|(_, c)| c.as_str()).collect();
        prop_assert_eq!(a.row_keys().iter().collect::<Vec<_>>(), rows.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.col_keys().iter().collect::<Vec<_>>(), cols.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(a.nnz(), reference.len());
        let got: Vec<(&str, &str, &String)> = a.iter().collect();
        let want: Vec<(&str, &str, &String)> =
            reference.iter().map(|((r, c), v)| (r.as_str(), c.as_str(), v)).collect();
        prop_assert_eq!(got, want);
        // Probes over the whole key alphabet, present or not.
        for r in ["a", "b", "d", "aa", "cd", "dd", "e"] {
            for c in ["x", "y", "z", "w"] {
                prop_assert_eq!(a.get(r, c), reference.get(&(r.to_string(), c.to_string())));
            }
        }
    }

    /// Transpose is an involution on associative arrays.
    #[test]
    fn assoc_transpose_involution(t in arb_triples()) {
        let a = Assoc::from_triples_last(t);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// Row selection then union of parts reconstructs the array.
    #[test]
    fn assoc_row_partition(t in arb_triples(), split in "[a-z]") {
        let a = Assoc::from_triples_last(t);
        let lo: KeySet = a.row_keys().iter().filter(|k| *k < split.as_str()).collect();
        let hi: KeySet = a.row_keys().iter().filter(|k| *k >= split.as_str()).collect();
        let (pa, pb) = (a.rows(&lo), a.rows(&hi));
        prop_assert_eq!(pa.nnz() + pb.nnz(), a.nnz());
    }

    /// TSV round-trips any array whose values avoid the record separators.
    #[test]
    fn tsv_round_trip(t in prop::collection::vec(
        ("[a-z]{1,5}", "[a-z]{1,4}", "[a-zA-Z0-9 ]{0,8}"), 0..40)
    ) {
        let a = Assoc::from_triples_last(t);
        let text = io::to_tsv(&a);
        prop_assert_eq!(io::from_tsv(&text).unwrap(), a);
    }

    /// `and_then` produces the intersection pattern.
    #[test]
    fn and_then_is_intersection(t1 in arb_triples(), t2 in arb_triples()) {
        let a = Assoc::from_triples_last(t1);
        let b = Assoc::from_triples_last(t2);
        let c = a.and_then(&b, |x, _| x.clone());
        for (r, cl, _) in c.iter() {
            prop_assert!(a.get(r, cl).is_some() && b.get(r, cl).is_some());
        }
        prop_assert!(c.nnz() <= a.nnz().min(b.nnz()));
    }
}
