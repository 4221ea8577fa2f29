//! Conversions between GraphBLAS hypersparse matrices and associative
//! arrays.
//!
//! The paper's workflow: "After the unique sources and packet counts are
//! computed from the CAIDA Telescope GraphBLAS matrices, the reduced results
//! are converted to D4M associative arrays to facilitate correlation with
//! the GreyNoise D4M associative arrays." These functions are the key
//! format of that bridge: an IPv4 index rendered as a D4M string key, and
//! back.

use obscor_hypersparse::Index;

/// Render an IPv4 index in dotted-quad form (the D4M string key format).
pub fn ip_key(ip: Index) -> String {
    format!(
        "{:03}.{:03}.{:03}.{:03}",
        (ip >> 24) & 0xFF,
        (ip >> 16) & 0xFF,
        (ip >> 8) & 0xFF,
        ip & 0xFF
    )
}

/// Parse a key produced by [`ip_key`], and only such a key: the exact
/// inverse, four zero-padded 3-digit octets each at most 255. Any other
/// spelling of an address (`"1.2.3.4"`, `"+01.002.003.004"`) is a
/// different D4M key, which no set operation on [`KeySet`](crate::KeySet)s equates with
/// the rendered one, so it does not parse either.
pub fn parse_ip_key(key: &str) -> Option<Index> {
    let bytes = key.as_bytes();
    if bytes.len() != 15 {
        return None;
    }
    let mut ip: Index = 0;
    // `ddd.ddd.ddd.ddd`: four chunks, the last without its dot.
    for (i, octet) in bytes.chunks(4).enumerate() {
        if i < 3 && octet[3] != b'.' {
            return None;
        }
        let mut value: Index = 0;
        for &digit in &octet[..3] {
            if !digit.is_ascii_digit() {
                return None;
            }
            value = value * 10 + Index::from(digit - b'0');
        }
        if value > 255 {
            return None;
        }
        ip = (ip << 8) | value;
    }
    Some(ip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_key_is_sortable_dotted_quad() {
        assert_eq!(ip_key(0x01010101), "001.001.001.001");
        assert_eq!(ip_key(0xC0A80001), "192.168.000.001");
        // Zero padding makes lexicographic order equal numeric order.
        assert!(ip_key(0x0A000001) < ip_key(0x0B000001));
        assert!(ip_key(2) < ip_key(10));
    }

    #[test]
    fn parse_round_trips() {
        for ip in [0u32, 1, 0xFFFFFFFF, 0xC0A80001, 16843009] {
            assert_eq!(parse_ip_key(&ip_key(ip)), Some(ip));
        }
        // Only the canonical spelling parses: any other is a different key.
        assert_eq!(parse_ip_key("001.002.003.004"), Some(0x01020304));
        assert_eq!(parse_ip_key("1.2.3.4"), None);
        assert_eq!(parse_ip_key("+01.002.003.004"), None);
        assert_eq!(parse_ip_key("0001.02.003.004"), None);
        assert_eq!(parse_ip_key("256.000.000.001"), None);
        assert_eq!(parse_ip_key("001.002.003.0a4"), None);
        assert_eq!(parse_ip_key("001-002.003.004"), None);
        assert_eq!(parse_ip_key("256.0.0.1"), None);
        assert_eq!(parse_ip_key("1.2.3"), None);
        assert_eq!(parse_ip_key("1.2.3.4.5"), None);
        assert_eq!(parse_ip_key("a.b.c.d"), None);
    }
}
