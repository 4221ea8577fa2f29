//! Property-based tests for the hypersparse matrix substrate.

use obscor_hypersparse::{ops, reduce, serialize, Coo, Csr, HierarchicalAccumulator, Index};
use proptest::prelude::*;

fn arb_triples() -> impl Strategy<Value = Vec<(Index, Index, u64)>> {
    prop::collection::vec(
        (0u32..2_000, 0u32..2_000, 1u64..16),
        0..400,
    )
}

/// Like [`arb_triples`], but every column falls in `0..16`, so columns
/// collect many entries and fan-ins well above 2 are common.
fn arb_narrow_triples() -> impl Strategy<Value = Vec<(Index, Index, u64)>> {
    prop::collection::vec((0u32..2_000, 0u32..16, 1u64..16), 0..400)
}

fn build(triples: &[(Index, Index, u64)]) -> Csr<u64> {
    Coo::from_triples(triples.iter().copied()).into_csr()
}

/// Keys that mix the full u32 range (exercising every radix digit) with a
/// tiny range (forcing heavy duplication), and values that include
/// explicit zeros (which compaction must drop).
fn arb_radix_key() -> impl Strategy<Value = Index> {
    (any::<u32>(), any::<bool>()).prop_map(|(x, small)| if small { x % 8 } else { x })
}

fn arb_radix_triples() -> impl Strategy<Value = Vec<(Index, Index, u64)>> {
    prop::collection::vec((arb_radix_key(), arb_radix_key(), 0u64..4), 0..600)
}

proptest! {
    /// The radix compaction kernel is bit-identical to the serial
    /// comparison sort over arbitrary triples — duplicates (summed),
    /// explicit zeros (dropped), full-range keys, and empty lists — and
    /// its output satisfies every structural invariant.
    #[test]
    fn radix_equals_serial_compaction(t in arb_radix_triples()) {
        let serial = Coo::from_triples(t.iter().copied()).into_csr_serial();
        let radix = Coo::from_triples(t.iter().copied()).into_csr_radix();
        prop_assert!(radix.check_invariants().is_ok());
        prop_assert_eq!(serial, radix);
    }

    /// Zero-sum cancellation: f64 duplicates that sum to zero vanish from
    /// the radix output exactly as they do from the serial oracle.
    #[test]
    fn radix_drops_cancelled_f64_entries(t in arb_radix_triples()) {
        let signed = |v: u64| -> f64 {
            // Map 0..4 onto {-1.0, -0.5, 0.5, 1.0} so duplicate keys can
            // cancel exactly in binary floating point.
            [-1.0, -0.5, 0.5, 1.0][(v % 4) as usize]
        };
        let serial: Csr<f64> = Coo::from_triples(
            t.iter().map(|&(r, c, v)| (r, c, signed(v))),
        )
        .into_csr_serial();
        let radix: Csr<f64> = Coo::from_triples(
            t.iter().map(|&(r, c, v)| (r, c, signed(v))),
        )
        .into_csr_radix();
        prop_assert_eq!(serial, radix);
    }

    /// Hierarchical accumulation equals flat accumulation regardless of
    /// leaf size.
    #[test]
    fn hierarchical_equals_flat(t in arb_triples(), leaf in 1usize..64) {
        let mut acc = HierarchicalAccumulator::with_leaf_capacity(leaf);
        acc.extend(t.iter().copied());
        prop_assert_eq!(acc.finalize(), build(&t));
    }

    /// Every structural invariant holds after construction.
    #[test]
    fn invariants_hold(t in arb_triples()) {
        prop_assert!(build(&t).check_invariants().is_ok());
    }

    /// Transposition is an involution.
    #[test]
    fn transpose_involution(t in arb_triples()) {
        let a = build(&t);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// Element-wise addition is commutative.
    #[test]
    fn ewise_add_commutative(t1 in arb_triples(), t2 in arb_triples()) {
        let (a, b) = (build(&t1), build(&t2));
        prop_assert_eq!(ops::ewise_add(&a, &b), ops::ewise_add(&b, &a));
    }

    /// Element-wise addition is associative.
    #[test]
    fn ewise_add_associative(
        t1 in arb_triples(), t2 in arb_triples(), t3 in arb_triples()
    ) {
        let (a, b, c) = (build(&t1), build(&t2), build(&t3));
        let left = ops::ewise_add(&ops::ewise_add(&a, &b), &c);
        let right = ops::ewise_add(&a, &ops::ewise_add(&b, &c));
        prop_assert_eq!(left, right);
    }

    /// Element-wise addition equals one flat compaction of both operands'
    /// entries, and its result is a valid CSR.
    #[test]
    fn ewise_add_equals_flat_compaction(t1 in arb_triples(), t2 in arb_triples()) {
        let (a, b) = (build(&t1), build(&t2));
        let sum = ops::ewise_add(&a, &b);
        prop_assert!(sum.check_invariants().is_ok());
        prop_assert_eq!(sum, Coo::from_triples(a.iter().chain(b.iter())).into_csr());
    }

    /// The same over `f64`, where `b` holds the negation of random whole
    /// rows of `a` (plus other entries): a row that cancels completely
    /// leaves no empty row behind.
    #[test]
    fn ewise_add_drops_rows_that_cancel(
        t1 in arb_triples(), t2 in arb_triples(), rows in any::<u64>()
    ) {
        let float = |t: &[(Index, Index, u64)]| -> Vec<(Index, Index, f64)> {
            t.iter().map(|&(r, c, v)| (r, c, v as f64)).collect()
        };
        let a: Csr<f64> = Coo::from_triples(float(&t1)).into_csr();
        let negated = a
            .iter()
            .filter(|&(r, _, _)| rows >> (r % 64) & 1 == 1)
            .map(|(r, c, v)| (r, c, -v));
        let b: Csr<f64> = Coo::from_triples(negated.chain(float(&t2))).into_csr();
        let sum = ops::ewise_add(&a, &b);
        prop_assert!(sum.check_invariants().is_ok());
        prop_assert_eq!(sum, Coo::from_triples(a.iter().chain(b.iter())).into_csr());
    }

    /// Valid packets is additive over ewise_add.
    #[test]
    fn valid_packets_additive(t1 in arb_triples(), t2 in arb_triples()) {
        let (a, b) = (build(&t1), build(&t2));
        let c = ops::ewise_add(&a, &b);
        prop_assert_eq!(
            reduce::valid_packets(&c),
            reduce::valid_packets(&a) + reduce::valid_packets(&b)
        );
    }

    /// Every Table II aggregate is invariant under simultaneous row/column
    /// permutation — the anonymization-invariance claim of the paper.
    #[test]
    fn quantities_invariant_under_permutation(t in arb_triples(), key in any::<u32>()) {
        let a = build(&t);
        // A Feistel-ish bijection on u32: xor-rotate with the key. Any
        // bijection works; this one is cheap and key-dependent.
        let p = |i: Index| (i ^ key).rotate_left(7);
        let b = ops::permute(&a, p);
        prop_assert_eq!(
            reduce::NetworkQuantities::compute(&a),
            reduce::NetworkQuantities::compute(&b)
        );
    }

    /// Degree *distributions* (not just maxima) are permutation-invariant:
    /// the multiset of source packet counts survives anonymization.
    #[test]
    fn degree_multiset_invariant_under_permutation(t in arb_triples(), key in any::<u32>()) {
        let a = build(&t);
        let b = ops::permute(&a, |i| (i ^ key).rotate_left(11));
        let mut da: Vec<u64> = reduce::source_packets(&a).into_iter().map(|(_, d)| d).collect();
        let mut db: Vec<u64> = reduce::source_packets(&b).into_iter().map(|(_, d)| d).collect();
        da.sort_unstable();
        db.sort_unstable();
        prop_assert_eq!(da, db);
    }

    /// Binary codec round-trips exactly.
    #[test]
    fn codec_round_trip(t in arb_triples()) {
        let a = build(&t);
        prop_assert_eq!(serialize::decode::<u64>(&serialize::encode(&a)).unwrap(), a);
    }

    /// Zero-norm is idempotent and preserves the pattern.
    #[test]
    fn zero_norm_idempotent(t in arb_triples()) {
        let a = build(&t);
        let z = ops::zero_norm(&a);
        prop_assert_eq!(z.nnz(), a.nnz());
        prop_assert_eq!(ops::zero_norm(&z).clone(), z);
    }

    /// Row-side quantities of the transpose equal column-side quantities of
    /// the original (fan-in/fan-out duality): the per-quantity functions,
    /// the per-destination vectors, and `NetworkQuantities::compute`'s
    /// one-sort column fields, on spread and on narrow column ranges.
    #[test]
    fn transpose_duality(t in arb_triples(), narrow in arb_narrow_triples()) {
        for t in [t, narrow] {
            let a = build(&t);
            let tr = a.transpose();
            prop_assert_eq!(reduce::unique_sources(&tr), reduce::unique_destinations(&a));
            prop_assert_eq!(reduce::max_source_packets(&tr), reduce::max_destination_packets(&a));
            prop_assert_eq!(reduce::max_source_fan_out(&tr), reduce::max_destination_fan_in(&a));
            prop_assert_eq!(reduce::source_packets(&tr), reduce::destination_packets(&a));
            prop_assert_eq!(reduce::source_fan_out(&tr), reduce::destination_fan_in(&a));
            let q = reduce::NetworkQuantities::compute(&a);
            let qt = reduce::NetworkQuantities::compute(&tr);
            prop_assert_eq!(qt.unique_sources, q.unique_destinations);
            prop_assert_eq!(qt.max_source_packets, q.max_destination_packets);
            prop_assert_eq!(qt.max_source_fan_out, q.max_destination_fan_in);
        }
    }

    /// Fuzz: decode over arbitrarily mutated v2 encodings is total (no
    /// panic — proptest fails the case if one escapes) and honest: any
    /// input it accepts carries the v2 magic and a matching CRC over the
    /// protected region.
    #[test]
    fn mutated_v2_decode_is_total_and_crc_honest(
        t in arb_triples(),
        muts in arb_mutations(),
        keep in 0usize..8192,
    ) {
        let mut bytes = serialize::encode(&build(&t));
        mutate(&mut bytes, &muts, keep);
        if serialize::decode::<u64>(&bytes).is_ok() {
            prop_assert_eq!(&bytes[..8], &serialize::MAGIC_V2[..], "accepted without the v2 magic");
            let payload_len =
                u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
            let stored = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
            let mut protected = bytes[8..24].to_vec();
            protected.extend_from_slice(&bytes[28..28 + payload_len]);
            prop_assert_eq!(
                stored,
                serialize::crc32(&protected),
                "decode accepted a v2 input whose CRC does not verify"
            );
        }
    }

    /// Any single bit flip anywhere in a v2 encoding is detected: the CRC
    /// covers the header counts and payload, a flip in the stored CRC
    /// mismatches the computed one, and a flip in the magic is bad magic.
    #[test]
    fn any_single_bit_flip_in_v2_is_detected(
        t in arb_triples(),
        pos in 0usize..8192,
        bit in 0u32..8,
    ) {
        let mut bytes = serialize::encode(&build(&t));
        let len = bytes.len();
        bytes[pos % len] ^= 1u8 << bit;
        prop_assert!(serialize::decode::<u64>(&bytes).is_err(), "flip at {}", pos % len);
    }

    /// Decode accepts a CRC-valid frame exactly when its records are what
    /// `encode` writes (strictly increasing `(row, col)`, no zero value),
    /// and then re-encodes it byte for byte; any other record sequence,
    /// repeated coordinates included, is `Corrupt`.
    #[test]
    fn decode_accepts_exactly_the_record_order_encode_writes(
        t in prop::collection::vec((0u32..6, 0u32..6, 1u64..4), 0..20),
        edit in (0u8..4, any::<usize>()),
    ) {
        // Start from the order `encode` writes, then maybe break it once:
        // repeat a record, swap two neighbours, or zero a value.
        let mut records = t;
        records.sort_unstable_by_key(|&(r, c, _)| (r, c));
        records.dedup_by_key(|&mut (r, c, _)| (r, c));
        if !records.is_empty() {
            let i = edit.1 % records.len();
            match edit.0 {
                1 => records.insert(i, records[i]),
                2 if i + 1 < records.len() => records.swap(i, i + 1),
                3 => records[i].2 = 0,
                _ => {}
            }
        }
        let bytes = sealed_frame(&records);
        let as_encoded = records.iter().all(|&(_, _, v)| v != 0)
            && records.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
        match serialize::decode::<u64>(&bytes) {
            Ok(a) => {
                prop_assert!(as_encoded, "accepted {:?}", records);
                prop_assert_eq!(serialize::encode(&a), bytes);
            }
            Err(e) => {
                prop_assert!(!as_encoded, "refused {:?}: {}", records, e);
                prop_assert!(matches!(e, serialize::CodecError::Corrupt(_)), "{:?}", e);
            }
        }
    }

    /// Codec v2 round-trips exactly for every `Value` type.
    #[test]
    fn codec_v2_round_trips_all_value_types(t in arb_triples()) {
        let a64 = build(&t);
        prop_assert_eq!(serialize::decode::<u64>(&serialize::encode(&a64)).unwrap(), a64);
        let a32: Csr<u32> = Coo::from_triples(
            t.iter().map(|&(r, c, v)| (r, c, u32::try_from(v).unwrap())),
        )
        .into_csr();
        prop_assert_eq!(serialize::decode::<u32>(&serialize::encode(&a32)).unwrap(), a32);
        let af: Csr<f64> = Coo::from_triples(t.iter().map(|&(r, c, v)| (r, c, v as f64)))
            .into_csr();
        prop_assert_eq!(serialize::decode::<f64>(&serialize::encode(&af)).unwrap(), af);
    }
}

/// A v2 frame holding `records` as given, in any order, with a valid CRC.
fn sealed_frame(records: &[(Index, Index, u64)]) -> Vec<u8> {
    let mut bytes = serialize::MAGIC_V2.to_vec();
    bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(16 * records.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    for &(r, c, v) in records {
        bytes.extend_from_slice(&r.to_le_bytes());
        bytes.extend_from_slice(&c.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let mut protected = bytes[8..24].to_vec();
    protected.extend_from_slice(&bytes[28..]);
    let crc = serialize::crc32(&protected);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Up to 8 xor-style byte corruptions at arbitrary offsets.
fn arb_mutations() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..8192, any::<u8>()), 0..8)
}

/// Apply byte corruptions (offsets wrap) and truncate to at most `keep`
/// bytes — together they cover bit rot, tearing, and short reads.
fn mutate(bytes: &mut Vec<u8>, muts: &[(usize, u8)], keep: usize) {
    let len = bytes.len();
    for &(pos, m) in muts {
        if len > 0 {
            bytes[pos % len] ^= m;
        }
    }
    if keep < bytes.len() {
        bytes.truncate(keep);
    }
}
