//! Property-based tests for the packet layer.

use obscor_pcap::format::PcapError;
use obscor_pcap::{
    AcceptAll, ConstantPacketWindower, Ip4, PacketFilter, PcapReader, PcapWriter, PrefixFilter,
    Protocol,
};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = obscor_pcap::Packet> {
    (
        0u64..1u64 << 50,
        any::<u32>(),
        any::<u32>(),
        prop::sample::select(vec![Protocol::Tcp, Protocol::Udp, Protocol::Icmp]),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(ts, src, dst, proto, sp, dp)| {
            let (src_port, dst_port) = match proto {
                Protocol::Icmp => (0, 0),
                _ => (sp, dp),
            };
            obscor_pcap::Packet {
                ts_micros: ts,
                src: Ip4(src),
                dst: Ip4(dst),
                proto,
                src_port,
                dst_port,
                length: 40,
            }
        })
}

/// A valid capture of 4 to 6 packets holding every protocol kind: packet
/// `i` is TCP, UDP, ICMP or another protocol number as `i % 4`.
fn arb_mixed_capture() -> impl Strategy<Value = Vec<u8>> {
    // IGMP, GRE, ESP, OSPF, SCTP: numbers the codec has no named kind for.
    let others = prop::sample::select(vec![2u8, 47, 50, 89, 132]);
    (prop::collection::vec(arb_packet(), 4..7), others).prop_map(|(packets, other)| {
        let kinds = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp, Protocol::Other(other)];
        let mut w = PcapWriter::new();
        for (i, mut p) in packets.into_iter().enumerate() {
            p.proto = kinds[i % 4];
            if !matches!(p.proto, Protocol::Tcp | Protocol::Udp) {
                (p.src_port, p.dst_port) = (0, 0);
            }
            w.write_packet(&p);
        }
        w.into_bytes()
    })
}

/// Parse a whole capture, as `obscor` reads a pcap file.
fn read(bytes: &[u8]) -> Result<Vec<obscor_pcap::Packet>, PcapError> {
    PcapReader::new(bytes).and_then(|r| r.read_all())
}

proptest! {
    /// The reader is total under mutation: every prefix, every single-bit
    /// flip and random byte overwrites of a valid capture read to `Ok` or
    /// a typed `PcapError`, never a panic. A prefix ending on a record
    /// boundary (the bare global header included) reads exactly the
    /// packets before it, any other prefix is a transient `Truncated`, and
    /// a flip in the magic is `BadMagic`.
    #[test]
    fn mutated_captures_read_total(
        bytes in arb_mixed_capture(),
        overwrites in prop::collection::vec((any::<usize>(), any::<u8>()), 1..16),
    ) {
        let full = read(&bytes).unwrap();
        let mut ends = vec![24usize];
        while let Some(&at) = ends.last().filter(|&&at| at < bytes.len()) {
            let incl = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap());
            ends.push(at + 16 + incl as usize);
        }
        prop_assert_eq!(ends.len(), full.len() + 1);
        for len in 0..=bytes.len() {
            match ends.iter().position(|&end| end == len) {
                Some(k) => prop_assert_eq!(read(&bytes[..len]).unwrap(), full[..k].to_vec()),
                None => {
                    let err = read(&bytes[..len]).unwrap_err();
                    prop_assert!(err.class().is_transient(), "prefix {len}: {err}");
                    prop_assert_eq!(err, PcapError::Truncated);
                }
            }
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let result = read(&flipped);
                if pos < 4 {
                    prop_assert!(matches!(result, Err(PcapError::BadMagic(_))), "{result:?}");
                }
            }
        }
        let mut overwritten = bytes.clone();
        for &(pos, byte) in &overwrites {
            let at = pos % overwritten.len();
            overwritten[at] = byte;
        }
        let _ = read(&overwritten);
    }

    /// Any packet sequence survives the libpcap round trip with headers
    /// and checksums intact.
    #[test]
    fn pcap_round_trip(packets in prop::collection::vec(arb_packet(), 0..50)) {
        let mut w = PcapWriter::new();
        for p in &packets {
            w.write_packet(p);
        }
        let back = PcapReader::new(&w.into_bytes()).unwrap().read_all().unwrap();
        prop_assert_eq!(back.len(), packets.len());
        for (a, b) in packets.iter().zip(&back) {
            prop_assert_eq!(a.ts_micros, b.ts_micros);
            prop_assert_eq!(a.src, b.src);
            prop_assert_eq!(a.dst, b.dst);
            prop_assert_eq!(a.proto, b.proto);
            prop_assert_eq!(a.src_port, b.src_port);
            prop_assert_eq!(a.dst_port, b.dst_port);
        }
    }

    /// A corrupted byte anywhere inside a record either fails parsing or
    /// never silently changes addressing fields. (Flips in padding/ignored
    /// fields may survive; flips in addresses must be caught by the IPv4
    /// checksum.)
    #[test]
    fn address_corruption_is_detected(
        p in arb_packet(),
        byte_off in 0usize..8,
        bit in 0u8..8,
    ) {
        let mut w = PcapWriter::new();
        w.write_packet(&p);
        let mut bytes = w.into_bytes();
        // Addresses live at frame offset 14+12..14+20; records start at
        // 24 (global) + 16 (record header).
        let addr_start = 24 + 16 + 14 + 12;
        bytes[addr_start + byte_off] ^= 1 << bit;
        let result = PcapReader::new(&bytes).unwrap().read_all();
        prop_assert!(result.is_err(), "corrupted address accepted");
    }

    /// The windower emits exactly floor(valid/n) windows of exactly n
    /// packets, preserving arrival order.
    #[test]
    fn windower_partitions(
        packets in prop::collection::vec(arb_packet(), 0..120),
        n in 1usize..20,
    ) {
        let windows: Vec<_> =
            ConstantPacketWindower::new(packets.clone().into_iter(), AcceptAll, n).collect();
        prop_assert_eq!(windows.len(), packets.len() / n);
        let flattened: Vec<_> =
            windows.iter().flat_map(|w| w.packets.iter().copied()).collect();
        prop_assert_eq!(&flattened[..], &packets[..flattened.len()]);
        for (i, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.index, i);
            prop_assert_eq!(w.packets.len(), n);
        }
    }

    /// Valid + discarded accounts for every packet the windower consumed.
    #[test]
    fn windower_conserves_packets(
        packets in prop::collection::vec(arb_packet(), 0..120),
        octet in any::<u8>(),
        n in 1usize..10,
    ) {
        let filter = PrefixFilter::slash8(octet);
        let mut windower =
            ConstantPacketWindower::new(packets.clone().into_iter(), filter, n);
        let windows: Vec<_> = windower.by_ref().collect();
        let valid_in_windows: usize = windows.iter().map(|w| w.packets.len()).sum();
        let discarded: u64 = windows.iter().map(|w| w.discarded).sum();
        let total_valid = packets.iter().filter(|p| filter.accept(p)).count();
        prop_assert_eq!(valid_in_windows + windower.remainder().len(), total_valid);
        // Everything the filter rejected before the last full window is
        // counted somewhere (windows or the in-progress remainder).
        prop_assert!(discarded as usize <= packets.len() - total_valid);
    }

    /// Prefix membership is consistent with integer masking.
    #[test]
    fn prefix_matches_mask(ip in any::<u32>(), prefix in any::<u32>(), len in 0u8..=32) {
        let member = Ip4(ip).in_prefix(Ip4(prefix), len);
        let expected = if len == 0 {
            true
        } else {
            let mask = u32::MAX << (32 - len as u32);
            ip & mask == prefix & mask
        };
        prop_assert_eq!(member, expected);
    }

    /// Display/FromStr round-trips every address.
    #[test]
    fn ip_display_round_trip(ip in any::<u32>()) {
        let parsed: Ip4 = Ip4(ip).to_string().parse().unwrap();
        prop_assert_eq!(parsed, Ip4(ip));
    }
}
