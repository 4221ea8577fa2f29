//! A small tcpdump-style filter expression language.
//!
//! Validity filters are usually written in code ([`crate::filter`]); for
//! interactive tooling a textual form is handier. The grammar is the
//! familiar BPF subset:
//!
//! ```text
//! expr     := or
//! or       := and ("or" and)*
//! and      := unary ("and" unary)*
//! unary    := "not" unary | "(" expr ")" | primitive
//! primitive:= "proto" ("tcp"|"udp"|"icmp"|NUM)
//!           | ("src"|"dst") "net" IPV4 "/" NUM
//!           | ("src"|"dst") "host" IPV4
//!           | ("src"|"dst")? "port" NUM
//! ```
//!
//! Compiled expressions implement [`PacketFilter`], so they plug into the
//! constant-packet windower unchanged. Parentheses and `not`s may nest at
//! most 64 deep; a deeper filter is a [`ParseError`]. An `and`/`or` chain
//! is stored flat, one [`Vec`] of terms, so a chain of any length is
//! parsed, evaluated and dropped without recursing once per term.

use crate::filter::PacketFilter;
use crate::packet::{Ip4, Packet, Protocol};

/// How deeply parentheses and `not`s may nest. The parser recurses once
/// per level, so without a bound a long enough filter would overflow the
/// stack and abort the process instead of returning an error.
const MAX_DEPTH: usize = 64;

/// A compiled filter expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Transport protocol equals.
    Proto(Protocol),
    /// Source address in CIDR prefix.
    SrcNet(Ip4, u8),
    /// Destination address in CIDR prefix.
    DstNet(Ip4, u8),
    /// Source port equals.
    SrcPort(u16),
    /// Destination port equals.
    DstPort(u16),
    /// Either port equals.
    Port(u16),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction of two or more terms, evaluated left to right until
    /// one rejects.
    And(Vec<Expr>),
    /// Disjunction of two or more terms, evaluated left to right until
    /// one accepts.
    Or(Vec<Expr>),
}

impl PacketFilter for Expr {
    fn accept(&self, p: &Packet) -> bool {
        match self {
            Expr::Proto(proto) => p.proto == *proto,
            Expr::SrcNet(net, len) => p.src.in_prefix(*net, *len),
            Expr::DstNet(net, len) => p.dst.in_prefix(*net, *len),
            Expr::SrcPort(port) => p.src_port == *port,
            Expr::DstPort(port) => p.dst_port == *port,
            Expr::Port(port) => p.src_port == *port || p.dst_port == *port,
            Expr::Not(inner) => !inner.accept(p),
            Expr::And(terms) => terms.iter().all(|t| t.accept(p)),
            Expr::Or(terms) => terms.iter().any(|t| t.accept(p)),
        }
    }
}

/// Parse errors with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Token index where it went wrong.
    pub at_token: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at token {})", self.message, self.at_token)
    }
}

impl std::error::Error for ParseError {}

/// Parse a filter expression.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens: Vec<String> = input
        .replace('(', " ( ")
        .replace(')', " ) ")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let expr = parser.parse_or()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.err("unexpected trailing tokens"));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
    /// Parentheses and `not`s open around `pos`.
    depth: usize,
}

impl Parser {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), at_token: self.pos }
    }

    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(|s| s.as_str())
    }

    fn next(&mut self) -> Result<String, ParseError> {
        let t = self
            .peek()
            .ok_or_else(|| self.err("unexpected end of expression"))?
            .to_string();
        self.pos += 1;
        Ok(t)
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain("or", Self::parse_and, Expr::Or)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        self.parse_chain("and", Self::parse_unary, Expr::And)
    }

    /// Parse `operand (op operand)*`. One operand stands for itself; two
    /// or more are joined into one flat chain.
    fn parse_chain(
        &mut self,
        op: &str,
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
        join: fn(Vec<Expr>) -> Expr,
    ) -> Result<Expr, ParseError> {
        let first = operand(self)?;
        if self.peek() != Some(op) {
            return Ok(first);
        }
        let mut terms = vec![first];
        while self.peek() == Some(op) {
            self.pos += 1;
            terms.push(operand(self)?);
        }
        Ok(join(terms))
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some("not") => self.nested(|p| Ok(Expr::Not(Box::new(p.parse_unary()?)))),
            Some("(") => self.nested(|p| {
                let inner = p.parse_or()?;
                if p.next()? != ")" {
                    return Err(p.err("expected ')'"));
                }
                Ok(inner)
            }),
            _ => self.parse_primitive(),
        }
    }

    /// Consume the `not` or `(` at `pos` and parse what it opens one level
    /// deeper; past [`MAX_DEPTH`] levels, fail at that token.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("expression nested too deeply"));
        }
        self.depth += 1;
        self.pos += 1;
        let expr = body(self)?;
        self.depth -= 1;
        Ok(expr)
    }

    fn parse_primitive(&mut self) -> Result<Expr, ParseError> {
        let head = self.next()?;
        match head.as_str() {
            "proto" => {
                let t = self.next()?;
                let proto = match t.as_str() {
                    "tcp" => Protocol::Tcp,
                    "udp" => Protocol::Udp,
                    "icmp" => Protocol::Icmp,
                    n => Protocol::from_number(
                        n.parse().map_err(|_| self.err("bad protocol"))?,
                    ),
                };
                Ok(Expr::Proto(proto))
            }
            dir @ ("src" | "dst") => {
                let what = self.next()?;
                match what.as_str() {
                    "net" => {
                        let (net, len) = self.parse_cidr()?;
                        Ok(if dir == "src" {
                            Expr::SrcNet(net, len)
                        } else {
                            Expr::DstNet(net, len)
                        })
                    }
                    "host" => {
                        let ip = self.parse_ip()?;
                        Ok(if dir == "src" {
                            Expr::SrcNet(ip, 32)
                        } else {
                            Expr::DstNet(ip, 32)
                        })
                    }
                    "port" => {
                        let port = self.parse_port()?;
                        Ok(if dir == "src" {
                            Expr::SrcPort(port)
                        } else {
                            Expr::DstPort(port)
                        })
                    }
                    _ => Err(self.err("expected net/host/port after src/dst")),
                }
            }
            "port" => Ok(Expr::Port(self.parse_port()?)),
            other => Err(ParseError {
                message: format!("unexpected token '{other}'"),
                at_token: self.pos - 1,
            }),
        }
    }

    fn parse_ip(&mut self) -> Result<Ip4, ParseError> {
        self.next()?.parse().map_err(|_| self.err("bad IPv4 address"))
    }

    fn parse_cidr(&mut self) -> Result<(Ip4, u8), ParseError> {
        let t = self.next()?;
        let (addr, len) =
            t.split_once('/').ok_or_else(|| self.err("expected a.b.c.d/len"))?;
        let ip: Ip4 = addr.parse().map_err(|_| self.err("bad IPv4 address"))?;
        let len: u8 = len.parse().map_err(|_| self.err("bad prefix length"))?;
        if len > 32 {
            return Err(self.err("prefix length exceeds 32"));
        }
        Ok((ip, len))
    }

    fn parse_port(&mut self) -> Result<u16, ParseError> {
        self.next()?.parse().map_err(|_| self.err("bad port"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: &str, dst: &str, proto: Protocol, sp: u16, dp: u16) -> Packet {
        Packet {
            ts_micros: 0,
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            proto,
            src_port: sp,
            dst_port: dp,
            length: 40,
        }
    }

    #[test]
    fn primitives_match() {
        let scan = pkt("1.2.3.4", "44.9.9.9", Protocol::Tcp, 50000, 445);
        assert!(parse("proto tcp").unwrap().accept(&scan));
        assert!(!parse("proto udp").unwrap().accept(&scan));
        assert!(parse("dst net 44.0.0.0/8").unwrap().accept(&scan));
        assert!(!parse("dst net 45.0.0.0/8").unwrap().accept(&scan));
        assert!(parse("src host 1.2.3.4").unwrap().accept(&scan));
        assert!(parse("dst port 445").unwrap().accept(&scan));
        assert!(parse("port 445").unwrap().accept(&scan));
        assert!(parse("src port 50000").unwrap().accept(&scan));
        assert!(!parse("src port 445").unwrap().accept(&scan));
    }

    #[test]
    fn boolean_structure() {
        let scan = pkt("1.2.3.4", "44.9.9.9", Protocol::Tcp, 50000, 445);
        let dns = pkt("8.8.8.8", "44.0.0.1", Protocol::Udp, 53, 53);
        let e = parse("proto tcp and dst net 44.0.0.0/8 and not port 22").unwrap();
        assert!(e.accept(&scan));
        assert!(!e.accept(&dns));
        let either = parse("port 445 or port 53").unwrap();
        assert!(either.accept(&scan));
        assert!(either.accept(&dns));
    }

    #[test]
    fn precedence_and_parens() {
        // "a or b and c" parses as "a or (b and c)".
        let e = parse("port 1 or port 2 and proto udp").unwrap();
        let tcp2 = pkt("1.1.1.1", "2.2.2.2", Protocol::Tcp, 2, 2);
        assert!(!e.accept(&tcp2), "and binds tighter than or");
        let grouped = parse("( port 1 or port 2 ) and proto udp").unwrap();
        let udp2 = pkt("1.1.1.1", "2.2.2.2", Protocol::Udp, 2, 9);
        assert!(grouped.accept(&udp2));
        assert!(!grouped.accept(&tcp2));
    }

    #[test]
    fn icmp_and_numeric_protocols() {
        let ping = pkt("1.1.1.1", "44.0.0.9", Protocol::Icmp, 0, 0);
        assert!(parse("proto icmp").unwrap().accept(&ping));
        assert!(parse("proto 1").unwrap().accept(&ping));
        assert!(parse("not proto 6").unwrap().accept(&ping));
    }

    #[test]
    fn double_negation() {
        let p = pkt("1.1.1.1", "2.2.2.2", Protocol::Tcp, 1, 2);
        assert!(parse("not not proto tcp").unwrap().accept(&p));
    }

    #[test]
    fn nesting_is_bounded() {
        let n = 100_000;
        let parens = format!("{}port 80{}", "(".repeat(n), ")".repeat(n));
        let nots = format!("{}port 80", "not ".repeat(n));
        for deep in [parens, nots] {
            let err = parse(&deep).unwrap_err();
            assert_eq!(err.message, "expression nested too deeply");
            assert_eq!(err.at_token, MAX_DEPTH);
        }
        let at_limit = format!("{}port 80{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert_eq!(parse(&at_limit), parse("port 80"));
        let mixed = format!("{}( port 80 )", "not ".repeat(MAX_DEPTH - 1));
        assert!(parse(&mixed).is_ok());
        assert!(parse(&format!("not {mixed}")).is_err());
    }

    #[test]
    fn long_chains_are_flat() {
        let n = 200_000;
        let p = pkt("1.1.1.1", "2.2.2.2", Protocol::Tcp, 1, 2);
        let all = parse(&format!("port 1{}", " and port 1".repeat(n - 1))).unwrap();
        assert!(matches!(&all, Expr::And(terms) if terms.len() == n));
        assert!(all.accept(&p));
        let last = parse(&format!("port 9{} and port 2", " and port 1".repeat(n - 1))).unwrap();
        assert!(!last.accept(&p));
        let any = parse(&format!("port 9{} or port 2", " or port 8".repeat(n - 1))).unwrap();
        assert!(matches!(&any, Expr::Or(terms) if terms.len() == n + 1));
        assert!(any.accept(&p));
        // "a and b or c and d" is an `or` of two flat `and`s.
        let mixed = parse(&format!("port 1{0} or port 9{0}", " and port 2".repeat(n / 2))).unwrap();
        assert!(matches!(&mixed, Expr::Or(terms) if terms.len() == 2));
        assert!(mixed.accept(&p));
        drop((all, last, any, mixed));
    }

    #[test]
    fn parse_errors_are_located() {
        for bad in [
            "",
            "proto",
            "proto banana",
            "src net 1.2.3.4",      // missing /len
            "dst net 1.2.3.4/40",   // bad length
            "port eleventy",
            "( proto tcp",          // unclosed
            "proto tcp garbage",    // trailing
            "src frobnicate 1.1.1.1",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn windower_integration() {
        use crate::window::ConstantPacketWindower;
        let filter = parse("dst net 44.0.0.0/8 and proto tcp").unwrap();
        let stream = (0..100u32).map(|i| {
            pkt(
                "9.9.9.9",
                if i % 2 == 0 { "44.1.1.1" } else { "45.1.1.1" },
                if i % 4 < 2 { Protocol::Tcp } else { Protocol::Udp },
                1,
                2,
            )
        });
        let windows: Vec<_> = ConstantPacketWindower::new(stream, filter, 10).collect();
        // 25 packets match (even index and i%4<2 -> i%4==0).
        assert_eq!(windows.len(), 2);
        assert!(windows
            .iter()
            .flat_map(|w| &w.packets)
            .all(|p| p.proto == Protocol::Tcp && (p.dst.0 >> 24) == 44));
    }
}
