//! Property tests: the SPICE parser must reject hostile input with
//! `Err`, never a panic — the serving layer feeds it raw bytes straight
//! off a socket.

use paragraph_netlist::parse_spice;
use proptest::collection;
use proptest::prelude::*;

/// Drives the full parse + flatten path; any `Err` is acceptable, any
/// panic is a bug.
fn never_panics(src: &str) {
    if let Ok(netlist) = parse_spice(src) {
        let _ = netlist.flatten();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup (lossily decoded, as a server would).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..512)) {
        never_panics(&String::from_utf8_lossy(&bytes));
    }

    /// Printable-ASCII soup with newlines and tabs: more likely to form
    /// card-shaped lines than raw bytes.
    #[test]
    fn ascii_soup_never_panics(src in "[ -~\\n\\t]{0,256}") {
        never_panics(&src);
    }

    /// Lines built from the characters SPICE cards actually use —
    /// device prefixes, digits, dots, unit suffixes, equals signs —
    /// maximizing coverage of half-valid cards.
    #[test]
    fn card_shaped_soup_never_panics(src in "[mrcxv.endsubck0-9 =+-\\n]{0,200}") {
        never_panics(&src);
    }
}

/// Counterexample pins: inputs that target specific parse paths
/// (truncated exponents, dangling hierarchy, incomplete cards). Each
/// stays here verbatim so a regression is caught by name, not by luck.
#[test]
fn pinned_counterexamples_never_panic() {
    let pins: &[&str] = &[
        // Empty / whitespace / comment-only decks.
        "",
        "\n\n\n",
        "* comment only\n",
        // Truncated value suffixes and exponents.
        "r1 a b 1e\n.end\n",
        "r1 a b 1e+\n.end\n",
        "r1 a b 1e999999\n.end\n",
        "c1 a b .\n.end\n",
        "r1 a b meg\n.end\n",
        // Cards with too few tokens.
        "m\n.end\n",
        "mp o\n.end\n",
        "x\n.end\n",
        "x a\n.end\n",
        "r1 a\n.end\n",
        // Hierarchy abuse: unterminated, dangling ends, self-reference.
        ".subckt foo a b\n",
        ".ends\n.end\n",
        ".subckt loop a\nxinner a loop\n.ends\nxtop n1 loop\n.end\n",
        ".subckt a x\nxb x b\n.ends\n.subckt b x\nxa x a\n.ends\nx1 n a\n.end\n",
        // Continuation lines with nothing to continue.
        "+ w=1u l=2u\n.end\n",
        // Parameter assignments with missing halves.
        "mp o i vdd vdd pch nf=\n.end\n",
        "mp o i vdd vdd pch =4\n.end\n",
        // Embedded NUL and other control characters.
        "r1 a b 1k\u{0}\n.end\n",
        "\u{1b}[31mr1 a b 1k\n.end\n",
        // Unicode in names and values.
        "rΩ ａ b 1k\n.end\n",
    ];
    for src in pins {
        never_panics(src);
    }
    // Very long single token (heap-built, so pinned separately).
    never_panics(&format!("r1 a b {}\n.end\n", "9".repeat(4096)));
}

/// Device parameters that do not parse, are not finite, or are counts
/// outside `1..=u32::MAX` are rejected with an error naming the device
/// and parameter — never replaced by default sizing (which made
/// `l=nan nfin=2` and `nfin=inf` the same circuit) or saturated.
#[test]
fn bad_device_parameters_are_rejected_by_name() {
    let cases: &[(&str, &str)] = &[
        ("mp o i vdd vdd pch l=nan nfin=2\n.end\n", "l=nan"),
        ("mp o i vdd vdd pch nfin=inf\n.end\n", "nfin=inf"),
        ("mp o i vdd vdd pch nfin=1e308\n.end\n", "nfin="),
        ("mp o i vdd vdd pch l=1e400\n.end\n", "l=1e400"),
        ("mn o i vss vss nch nf=0\n.end\n", "nf="),
        ("mn o i vss vss nch m=2.5\n.end\n", "m="),
        ("c1 a b 1f m=-1\n.end\n", "m="),
        ("d1 a b nf=x\n.end\n", "nf=x"),
        ("r1 a b 1k l=inf\n.end\n", "l=inf"),
    ];
    for (src, param) in cases {
        let err = parse_spice(src).expect_err(src).to_string();
        let device = src.split_whitespace().next().unwrap();
        assert!(
            err.contains(&format!("'{device}'")) && err.contains(param),
            "{src:?}: error must name the device and parameter: {err}"
        );
    }
    // In-range values still parse, at their exact meaning.
    let ok = parse_spice("mp o i vdd vdd pch nfin=4294967295 nf=3 m=2 l=20n\n.end\n")
        .unwrap()
        .flatten()
        .unwrap();
    let p = &ok.devices()[0].params;
    assert_eq!((p.nfin, p.nf, p.multi), (u32::MAX, 3, 2));
    assert_eq!(p.l, 20e-9);
}
