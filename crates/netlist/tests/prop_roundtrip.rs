//! Property tests: SPICE write/parse round trips and value formatting.

use paragraph_netlist::{
    format_value, parse_spice, parse_value, write_flat_spice, Circuit, DeviceParams, MosPolarity,
};
use proptest::prelude::*;

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (1_usize..20, any::<u64>()).prop_map(|(n, seed)| {
        let mut c = Circuit::new("prop");
        let nets: Vec<_> = (0..6).map(|i| c.net(format!("n{i}"))).collect();
        let vdd = c.net("vdd");
        let vss = c.net("vss");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for i in 0..n {
            let pick = |r: usize| match r % 8 {
                6 => vdd,
                7 => vss,
                k => nets[k % 6],
            };
            match next() % 6 {
                0 | 1 => {
                    c.add_mosfet(
                        format!("m{i}"),
                        if next() % 2 == 0 {
                            MosPolarity::Nmos
                        } else {
                            MosPolarity::Pmos
                        },
                        next() % 5 == 0,
                        pick(next()),
                        pick(next()),
                        pick(next()),
                        vss,
                        DeviceParams {
                            l: [16e-9, 20e-9, 150e-9][next() % 3],
                            nf: 1 + (next() % 8) as u32,
                            nfin: 1 + (next() % 16) as u32,
                            multi: 1 + (next() % 3) as u32,
                            ..DeviceParams::default()
                        },
                    );
                }
                2 => {
                    c.add_resistor(
                        format!("r{i}"),
                        pick(next()),
                        pick(next()),
                        100.0 + (next() % 100_000) as f64,
                        1e-6,
                    );
                }
                3 => {
                    c.add_capacitor(
                        format!("c{i}"),
                        pick(next()),
                        pick(next()),
                        1e-15 * (1 + next() % 1000) as f64,
                        1 + (next() % 4) as u32,
                    );
                }
                4 => {
                    c.add_diode(
                        format!("d{i}"),
                        pick(next()),
                        pick(next()),
                        1 + (next() % 8) as u32,
                    );
                }
                _ => {
                    c.add_bjt(
                        format!("q{i}"),
                        next() % 2 == 0,
                        pick(next()),
                        pick(next()),
                        pick(next()),
                    );
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spice_roundtrip_preserves_structure(c in arb_circuit()) {
        let text = write_flat_spice(&c);
        let back = parse_spice(&text).unwrap().flatten().unwrap();
        // Dangling nets cannot be expressed in SPICE text, so compare
        // device mixes and *connected* net counts.
        let mut k1 = c.kind_counts();
        let mut k2 = back.kind_counts();
        k1.net = 0;
        k2.net = 0;
        prop_assert_eq!(k1, k2);
        let connected = |c: &Circuit| c.fanouts().iter().filter(|&&f| f > 0).count();
        prop_assert_eq!(connected(&c), connected(&back));
        back.validate().unwrap();
        // Device sizing survives (nf/nfin/multi exactly; l within format
        // rounding).
        for (d1, d2) in c.devices().iter().zip(back.devices()) {
            prop_assert_eq!(d1.kind, d2.kind);
            prop_assert_eq!(d1.params.nf, d2.params.nf);
            prop_assert_eq!(d1.params.nfin, d2.params.nfin);
            prop_assert_eq!(d1.params.multi, d2.params.multi);
        }
    }

    #[test]
    fn fanouts_match_a_per_net_count(c in arb_circuit()) {
        let fanouts = c.fanouts();
        prop_assert_eq!(fanouts.len(), c.num_nets());
        for (i, &f) in fanouts.iter().enumerate() {
            let brute = c
                .devices()
                .iter()
                .flat_map(|d| &d.conns)
                .filter(|(_, n)| n.0 as usize == i)
                .count();
            prop_assert_eq!(f, brute, "net {}", i);
        }
    }

    #[test]
    fn value_format_roundtrip(mantissa in 1.0_f64..999.0, exp in -18_i32..6) {
        let v = mantissa * 10f64.powi(exp);
        let s = format_value(v);
        let back = parse_value(&s).unwrap();
        prop_assert!((back - v).abs() <= v.abs() * 1e-5, "{v} -> {s} -> {back}");
    }

    #[test]
    fn parse_never_panics(s in "[a-z0-9.+-]{0,12}") {
        let _ = parse_value(&s);
    }

    #[test]
    fn netlist_parse_never_panics(s in "[a-z0-9 .\n=]{0,200}") {
        let _ = parse_spice(&s);
    }
}
