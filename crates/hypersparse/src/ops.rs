//! Element-wise matrix operations.
//!
//! The paper's analytics need only a small GraphBLAS subset: element-wise
//! addition over the `(+, +)` semiring reduct (for hierarchical window
//! accumulation), the zero-norm `| |_0` (pattern extraction), and index
//! permutation (which models anonymization — Table II notes all network
//! quantities are invariant under it).

use std::cmp::Ordering;

use crate::csr::Csr;
use crate::value::Value;
use crate::Index;

/// Element-wise sum `C = A + B`.
///
/// A streaming two-way merge over the sorted row lists that writes the
/// output's four CSR arrays directly — the kernel that the hierarchical
/// accumulator applies at every carry, so it is `O(nnz(A) + nnz(B))` with
/// no hashing and no intermediate triples. A row occupied on one side only
/// is copied whole; a row occupied on both merges its columns, summing
/// shared entries and dropping sums that cancel to zero. A row key is
/// pushed only if its row still holds an entry after that, so the result
/// stores no empty row.
pub fn ewise_add<V: Value>(a: &Csr<V>, b: &Csr<V>) -> Csr<V> {
    let (ra, rb) = (a.row_keys(), b.row_keys());
    let mut row_keys: Vec<Index> = Vec::with_capacity(ra.len() + rb.len());
    let mut row_ptr: Vec<usize> = Vec::with_capacity(ra.len() + rb.len() + 1);
    let mut cols: Vec<Index> = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals: Vec<V> = Vec::with_capacity(a.nnz() + b.nnz());
    row_ptr.push(0);
    let (mut ia, mut ib) = (0usize, 0usize);
    loop {
        let r = match (ra.get(ia), rb.get(ib)) {
            (Some(&r), Some(&s)) if r == s => {
                add_row(a.row_at(ia), b.row_at(ib), &mut cols, &mut vals);
                ia += 1;
                ib += 1;
                r
            }
            (Some(&r), Some(&s)) if r < s => {
                extend_row(a.row_at(ia), &mut cols, &mut vals);
                ia += 1;
                r
            }
            (Some(&r), None) => {
                extend_row(a.row_at(ia), &mut cols, &mut vals);
                ia += 1;
                r
            }
            (_, Some(&s)) => {
                extend_row(b.row_at(ib), &mut cols, &mut vals);
                ib += 1;
                s
            }
            // Both sides exhausted: the merge is complete.
            (None, None) => break,
        };
        if row_ptr.last() != Some(&cols.len()) {
            row_keys.push(r);
            row_ptr.push(cols.len());
        }
    }
    Csr::from_parts(row_keys, row_ptr, cols, vals)
}

/// Append one stored row unchanged.
fn extend_row<V: Value>((c, v): (&[Index], &[V]), cols: &mut Vec<Index>, vals: &mut Vec<V>) {
    cols.extend_from_slice(c);
    vals.extend_from_slice(v);
}

/// Append the sum of two stored rows of the same key: a merge of their
/// sorted columns in which a shared column whose values cancel is dropped.
fn add_row<V: Value>(
    (ca, va): (&[Index], &[V]),
    (cb, vb): (&[Index], &[V]),
    cols: &mut Vec<Index>,
    vals: &mut Vec<V>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < ca.len() && j < cb.len() {
        match ca[i].cmp(&cb[j]) {
            Ordering::Less => {
                cols.push(ca[i]);
                vals.push(va[i]);
                i += 1;
            }
            Ordering::Greater => {
                cols.push(cb[j]);
                vals.push(vb[j]);
                j += 1;
            }
            Ordering::Equal => {
                let mut v = va[i];
                v += vb[j];
                if !v.is_zero() {
                    cols.push(ca[i]);
                    vals.push(v);
                }
                i += 1;
                j += 1;
            }
        }
    }
    extend_row((&ca[i..], &va[i..]), cols, vals);
    extend_row((&cb[j..], &vb[j..]), cols, vals);
}

/// The zero-norm `|A|_0`: every stored nonzero becomes `1`. This is the
/// operator behind every "unique ..." quantity in Table II.
pub fn zero_norm<V: Value>(a: &Csr<V>) -> Csr<V> {
    let triples: Vec<(Index, Index, V)> = a.iter().map(|(r, c, _)| (r, c, V::one())).collect();
    Csr::from_sorted_dedup_triples(triples)
}

/// Apply an index bijection to both axes: `C(p(i), p(j)) = A(i, j)`.
///
/// Anonymization (CryptoPAN or hashing) is exactly such a permutation of the
/// IPv4 index space; every Table II quantity must be invariant under this
/// map, which the property tests verify.
pub fn permute<V: Value, P: Fn(Index) -> Index>(a: &Csr<V>, p: P) -> Csr<V> {
    let mut coo = crate::Coo::with_capacity(a.nnz());
    for (r, c, v) in a.iter() {
        coo.push(p(r), p(c), v);
    }
    coo.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn m(triples: &[(Index, Index, u64)]) -> Csr<u64> {
        Coo::from_triples(triples.iter().copied()).into_csr()
    }

    #[test]
    fn ewise_add_disjoint_rows() {
        let a = m(&[(1, 1, 1)]);
        let b = m(&[(2, 2, 2)]);
        let c = ewise_add(&a, &b);
        assert_eq!(c.get(1, 1), Some(1));
        assert_eq!(c.get(2, 2), Some(2));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn ewise_add_overlapping_entries_sum() {
        let a = m(&[(1, 1, 1), (1, 2, 5)]);
        let b = m(&[(1, 1, 3), (1, 3, 7)]);
        let c = ewise_add(&a, &b);
        assert_eq!(c.get(1, 1), Some(4));
        assert_eq!(c.get(1, 2), Some(5));
        assert_eq!(c.get(1, 3), Some(7));
        c.check_invariants().unwrap();
    }

    #[test]
    fn ewise_add_with_empty_is_identity() {
        let a = m(&[(4, 4, 4), (9, 1, 2)]);
        let e = Csr::empty();
        assert_eq!(ewise_add(&a, &e), a);
        assert_eq!(ewise_add(&e, &a), a);
    }

    #[test]
    fn ewise_add_is_commutative() {
        let a = m(&[(1, 1, 1), (3, 2, 9), (7, 7, 7)]);
        let b = m(&[(1, 1, 2), (3, 5, 1)]);
        assert_eq!(ewise_add(&a, &b), ewise_add(&b, &a));
    }

    #[test]
    fn cancellation_drops_entries() {
        let a = Coo::from_triples(vec![(1u32, 1u32, 2.0f64)]).into_csr();
        let b = Coo::from_triples(vec![(1u32, 1u32, -2.0f64)]).into_csr();
        let c = ewise_add(&a, &b);
        assert!(c.is_empty());
        c.check_invariants().unwrap();
    }

    #[test]
    fn zero_norm_patterns() {
        let a = m(&[(1, 1, 100), (2, 3, 42)]);
        let z = zero_norm(&a);
        assert_eq!(z.get(1, 1), Some(1));
        assert_eq!(z.get(2, 3), Some(1));
        assert_eq!(z.nnz(), a.nnz());
    }

    #[test]
    fn zero_norm_is_idempotent() {
        let a = m(&[(1, 1, 100), (2, 3, 42), (9, 0, 7)]);
        let z = zero_norm(&a);
        assert_eq!(zero_norm(&z), z);
    }

    #[test]
    fn permute_preserves_values() {
        let a = m(&[(1, 2, 3), (4, 5, 6)]);
        let p = permute(&a, |i| i.wrapping_add(100));
        assert_eq!(p.get(101, 102), Some(3));
        assert_eq!(p.get(104, 105), Some(6));
        assert_eq!(p.nnz(), a.nnz());
    }

    #[test]
    fn permute_identity_is_noop() {
        let a = m(&[(1, 2, 3), (4, 5, 6), (0, 0, 1)]);
        assert_eq!(permute(&a, |i| i), a);
    }
}
