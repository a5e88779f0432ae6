//! Recurring circuit-structure generators.
//!
//! The paper's premise is that "similar circuit structures produce similar
//! parasitics" — op-amps, mirrors, inverter chains and friends recur across
//! designs with varying sizing. [`ChipBuilder`] emits exactly such
//! structures into a flat [`Circuit`], with randomised sizing drawn from
//! [`crate::Sizer`].

use paragraph_netlist::{Circuit, MosPolarity, NetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sizing::Sizer;

/// Incrementally builds a flat circuit out of recurring analog/digital
/// blocks.
///
/// # Examples
///
/// ```
/// use paragraph_circuitgen::ChipBuilder;
///
/// let mut chip = ChipBuilder::new("demo", 42);
/// let input = chip.fresh_net("in");
/// let out = chip.buffer_chain(input, 4);
/// let _ = out;
/// let circuit = chip.into_circuit();
/// assert_eq!(circuit.num_devices(), 8); // 4 inverters
/// circuit.validate().unwrap();
/// ```
#[derive(Debug)]
pub struct ChipBuilder {
    circuit: Circuit,
    sizer: Sizer,
    rng: StdRng,
    uid: u64,
}

impl ChipBuilder {
    /// Creates a builder for a chip named `name` with a deterministic seed.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            circuit: Circuit::new(name),
            sizer: Sizer::new(),
            rng: StdRng::seed_from_u64(seed),
            uid: 0,
        }
    }

    /// Finishes building and returns the circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Read access to the circuit under construction.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Random source driving the builder (exposed so dataset recipes can
    /// make composition decisions from the same stream).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Creates a fresh uniquely named signal net.
    pub fn fresh_net(&mut self, hint: &str) -> NetId {
        self.uid += 1;
        let name = format!("n{}_{hint}", self.uid);
        self.circuit.net(name)
    }

    fn uname(&mut self, base: &str) -> String {
        self.uid += 1;
        format!("{base}{}", self.uid)
    }

    /// The core supply rail.
    pub fn vdd(&mut self) -> NetId {
        self.circuit.net("vdd")
    }

    /// The I/O (thick-gate) supply rail.
    pub fn vddio(&mut self) -> NetId {
        self.circuit.net("vdd_io")
    }

    /// The ground rail.
    pub fn vss(&mut self) -> NetId {
        self.circuit.net("vss")
    }

    fn nmos(&mut self, d: NetId, g: NetId, s: NetId, strength: f64) {
        let p = self.sizer.mosfet(&mut self.rng, strength);
        let vss = self.vss();
        let name = self.uname("mn");
        self.circuit
            .add_mosfet(name, MosPolarity::Nmos, false, d, g, s, vss, p);
    }

    fn pmos(&mut self, d: NetId, g: NetId, s: NetId, strength: f64) {
        let p = self.sizer.mosfet(&mut self.rng, strength);
        let vdd = self.vdd();
        let name = self.uname("mp");
        self.circuit
            .add_mosfet(name, MosPolarity::Pmos, false, d, g, s, vdd, p);
    }

    fn nmos_thick(&mut self, d: NetId, g: NetId, s: NetId, strength: f64) {
        let p = self.sizer.thick_mosfet(&mut self.rng, strength);
        let vss = self.vss();
        let name = self.uname("mnh");
        self.circuit
            .add_mosfet(name, MosPolarity::Nmos, true, d, g, s, vss, p);
    }

    fn pmos_thick(&mut self, d: NetId, g: NetId, s: NetId, strength: f64) {
        let p = self.sizer.thick_mosfet(&mut self.rng, strength);
        let vddio = self.vddio();
        let name = self.uname("mph");
        self.circuit
            .add_mosfet(name, MosPolarity::Pmos, true, d, g, s, vddio, p);
    }

    fn res(&mut self, p: NetId, n: NetId) {
        let (ohms, l) = self.sizer.resistor(&mut self.rng);
        let name = self.uname("r");
        self.circuit.add_resistor(name, p, n, ohms, l);
    }

    fn cap(&mut self, p: NetId, n: NetId) {
        let (farads, multi) = self.sizer.capacitor(&mut self.rng);
        let name = self.uname("c");
        self.circuit.add_capacitor(name, p, n, farads, multi);
    }

    // ------------------------------------------------------------------
    // Digital blocks
    // ------------------------------------------------------------------

    /// CMOS inverter driving `output` from `input`.
    pub fn inverter(&mut self, input: NetId, output: NetId, strength: f64) {
        let vdd = self.vdd();
        let vss = self.vss();
        self.pmos(output, input, vdd, strength);
        self.nmos(output, input, vss, strength);
    }

    /// Chain of `stages` inverters, each stage upsized; returns the final
    /// output net.
    pub fn buffer_chain(&mut self, input: NetId, stages: usize) -> NetId {
        let mut prev = input;
        for s in 0..stages {
            let out = self.fresh_net("buf");
            let strength = (s + 1) as f64 / stages.max(1) as f64;
            self.inverter(prev, out, strength);
            prev = out;
        }
        prev
    }

    /// 2-input NAND gate.
    pub fn nand2(&mut self, a: NetId, b: NetId, y: NetId) {
        let vdd = self.vdd();
        let vss = self.vss();
        let mid = self.fresh_net("nd");
        self.pmos(y, a, vdd, 0.6);
        self.pmos(y, b, vdd, 0.6);
        self.nmos(y, a, mid, 0.6);
        self.nmos(mid, b, vss, 0.6);
    }

    /// 2-input NOR gate.
    pub fn nor2(&mut self, a: NetId, b: NetId, y: NetId) {
        let vdd = self.vdd();
        let vss = self.vss();
        let mid = self.fresh_net("nr");
        self.pmos(mid, a, vdd, 0.6);
        self.pmos(y, b, mid, 0.6);
        self.nmos(y, a, vss, 0.6);
        self.nmos(y, b, vss, 0.6);
    }

    /// Odd-stage ring oscillator; returns its tap net.
    pub fn ring_oscillator(&mut self, stages: usize) -> NetId {
        let stages = if stages.is_multiple_of(2) {
            stages + 1
        } else {
            stages
        }
        .max(3);
        let first = self.fresh_net("ro");
        let mut prev = first;
        for _ in 0..stages - 1 {
            let out = self.fresh_net("ro");
            self.inverter(prev, out, 0.4);
            prev = out;
        }
        // Close the loop.
        self.inverter(prev, first, 0.4);
        prev
    }

    /// CMOS transmission gate between `a` and `b`.
    pub fn transmission_gate(&mut self, a: NetId, b: NetId, ctl: NetId, ctlb: NetId) {
        self.nmos(b, ctl, a, 0.5);
        self.pmos(b, ctlb, a, 0.5);
    }

    /// Static D-latch built from transmission gates and inverters.
    pub fn d_latch(&mut self, d: NetId, clk: NetId, clkb: NetId) -> NetId {
        let q = self.fresh_net("q");
        let qi = self.fresh_net("qi");
        let fb = self.fresh_net("fb");
        self.transmission_gate(d, qi, clk, clkb);
        self.inverter(qi, q, 0.5);
        self.inverter(q, fb, 0.3);
        self.transmission_gate(fb, qi, clkb, clk);
        q
    }

    // ------------------------------------------------------------------
    // Analog blocks
    // ------------------------------------------------------------------

    /// N-input current mirror: one diode-connected input leg plus `outputs`
    /// mirror legs. Returns the output drain nets.
    pub fn current_mirror(&mut self, iin: NetId, outputs: usize) -> Vec<NetId> {
        let vss = self.vss();
        self.nmos(iin, iin, vss, 0.5); // diode-connected reference
        (0..outputs)
            .map(|_| {
                let out = self.fresh_net("mir");
                self.nmos(out, iin, vss, 0.5);
                out
            })
            .collect()
    }

    /// PMOS-load differential pair; returns `(outp, outn)`.
    pub fn diff_pair(&mut self, inp: NetId, inn: NetId, bias: NetId) -> (NetId, NetId) {
        let vdd = self.vdd();
        let vss = self.vss();
        let tail = self.fresh_net("tail");
        let outp = self.fresh_net("dp");
        let outn = self.fresh_net("dn");
        self.nmos(tail, bias, vss, 0.6);
        self.nmos(outn, inp, tail, 0.7);
        self.nmos(outp, inn, tail, 0.7);
        self.pmos(outn, outn, vdd, 0.5); // diode loads
        self.pmos(outp, outn, vdd, 0.5);
        (outp, outn)
    }

    /// Classic five-transistor OTA; returns the single-ended output.
    pub fn ota5t(&mut self, inp: NetId, inn: NetId, bias: NetId) -> NetId {
        let (outp, _outn) = self.diff_pair(inp, inn, bias);
        outp
    }

    /// Two-stage Miller-compensated op-amp; returns the output net.
    pub fn opamp_two_stage(&mut self, inp: NetId, inn: NetId, bias: NetId) -> NetId {
        let vdd = self.vdd();
        let vss = self.vss();
        let first = self.ota5t(inp, inn, bias);
        let out = self.fresh_net("op");
        // Second stage: common-source PMOS with NMOS current-source load.
        self.pmos(out, first, vdd, 0.9);
        self.nmos(out, bias, vss, 0.7);
        // Miller compensation: series R + C from output to first stage.
        let comp = self.fresh_net("cm");
        self.res(out, comp);
        self.cap(comp, first);
        out
    }

    /// Clocked cross-coupled comparator; returns `(outp, outn)`.
    pub fn comparator(&mut self, inp: NetId, inn: NetId, clk: NetId) -> (NetId, NetId) {
        let vdd = self.vdd();
        let vss = self.vss();
        let tail = self.fresh_net("ct");
        let xp = self.fresh_net("cx");
        let xn = self.fresh_net("cy");
        self.nmos(tail, clk, vss, 0.8);
        self.nmos(xp, inp, tail, 0.7);
        self.nmos(xn, inn, tail, 0.7);
        // Cross-coupled latch.
        self.pmos(xp, xn, vdd, 0.6);
        self.pmos(xn, xp, vdd, 0.6);
        self.nmos(xp, xn, tail, 0.4);
        self.nmos(xn, xp, tail, 0.4);
        // Reset switches.
        self.pmos(xp, clk, vdd, 0.4);
        self.pmos(xn, clk, vdd, 0.4);
        // Output inverters.
        let outp = self.fresh_net("co");
        let outn = self.fresh_net("co");
        self.inverter(xp, outn, 0.6);
        self.inverter(xn, outp, 0.6);
        (outp, outn)
    }

    /// Cross-coupled thick-gate level shifter from core to I/O domain.
    pub fn level_shifter(&mut self, input: NetId) -> NetId {
        let vddio = self.vddio();
        let vss = self.vss();
        let inb = self.fresh_net("lsb");
        self.inverter(input, inb, 0.5);
        let xp = self.fresh_net("lsx");
        let out = self.fresh_net("lso");
        self.pmos_thick(xp, out, vddio, 0.7);
        self.pmos_thick(out, xp, vddio, 0.7);
        self.nmos_thick(xp, input, vss, 0.8);
        self.nmos_thick(out, inb, vss, 0.8);
        out
    }

    /// Thick-gate I/O output buffer (two big staged inverters); returns the
    /// pad net.
    pub fn io_buffer(&mut self, input: NetId) -> NetId {
        let vddio = self.vddio();
        let vss = self.vss();
        let mid = self.fresh_net("iob");
        let pad = self.fresh_net("pad");
        self.pmos_thick(mid, input, vddio, 0.6);
        self.nmos_thick(mid, input, vss, 0.6);
        self.pmos_thick(pad, mid, vddio, 1.0);
        self.nmos_thick(pad, mid, vss, 1.0);
        pad
    }

    /// Resistor-string bias ladder; returns the `taps` intermediate nets.
    pub fn bias_ladder(&mut self, taps: usize) -> Vec<NetId> {
        let vdd = self.vdd();
        let vss = self.vss();
        let mut prev = vdd;
        let mut out = Vec::with_capacity(taps);
        for _ in 0..taps {
            let tap = self.fresh_net("tap");
            self.res(prev, tap);
            out.push(tap);
            prev = tap;
        }
        self.res(prev, vss);
        out
    }

    /// First-order RC low-pass from `input`; returns the filtered net.
    pub fn rc_filter(&mut self, input: NetId) -> NetId {
        let vss = self.vss();
        let out = self.fresh_net("flt");
        self.res(input, out);
        self.cap(out, vss);
        out
    }

    /// Binary-weighted capacitor bank hanging off `top` (e.g. a DAC top
    /// plate).
    pub fn cap_bank(&mut self, top: NetId, bits: usize) {
        let vss = self.vss();
        for b in 0..bits {
            let bot = self.fresh_net("dac");
            let (farads, _) = self.sizer.capacitor(&mut self.rng);
            let name = self.uname("cd");
            self.circuit
                .add_capacitor(name, top, bot, farads, 1 << b.min(4));
            // Switch to ground.
            let ctl = self.fresh_net("sw");
            self.nmos(bot, ctl, vss, 0.4);
        }
    }

    /// Bandgap-style core: two BJTs, emitter resistor, mirror; returns the
    /// reference net.
    pub fn bandgap_core(&mut self) -> NetId {
        let vdd = self.vdd();
        let vss = self.vss();
        let vref = self.fresh_net("vref");
        let va = self.fresh_net("bga");
        let vb = self.fresh_net("bgb");
        let ve = self.fresh_net("bge");
        // PMOS mirror feeding the two legs.
        self.pmos(va, va, vdd, 0.5);
        self.pmos(vb, va, vdd, 0.5);
        self.pmos(vref, va, vdd, 0.5);
        // Diode-connected PNPs (base and collector tied to ground; the
        // emitter faces the mirror leg).
        let q1 = self.uname("q");
        self.circuit.add_bjt(q1, true, vss, vss, va);
        let q2 = self.uname("q");
        self.circuit.add_bjt(q2, true, vss, vss, ve);
        let _ = vb;
        self.res(vb, ve);
        self.res(vref, vss);
        vref
    }

    /// ESD clamp on `pad`: dual diodes to the rails.
    pub fn esd_clamp(&mut self, pad: NetId) {
        let vddio = self.vddio();
        let vss = self.vss();
        let nf = self.rng.random_range(2..=8);
        let d1 = self.uname("d");
        self.circuit.add_diode(d1, pad, vddio, nf);
        let d2 = self.uname("d");
        self.circuit.add_diode(d2, vss, pad, nf);
    }

    /// Six-transistor SRAM bit cell on the given bitlines and wordline.
    pub fn sram_cell(&mut self, bl: NetId, blb: NetId, wl: NetId) {
        let q = self.fresh_net("sq");
        let qb = self.fresh_net("sqb");
        // Cross-coupled inverters.
        self.inverter(q, qb, 0.3);
        self.inverter(qb, q, 0.3);
        // Access transistors.
        self.nmos(bl, wl, q, 0.4);
        self.nmos(blb, wl, qb, 0.4);
    }

    /// Small SRAM column: `rows` cells sharing bitlines, plus a precharge
    /// pair. Returns the bitline pair.
    pub fn sram_column(&mut self, rows: usize) -> (NetId, NetId) {
        let vdd = self.vdd();
        let bl = self.fresh_net("bl");
        let blb = self.fresh_net("blb");
        let pre = self.fresh_net("pre");
        self.pmos(bl, pre, vdd, 0.5);
        self.pmos(blb, pre, vdd, 0.5);
        for _ in 0..rows.max(1) {
            let wl = self.fresh_net("wl");
            self.sram_cell(bl, blb, wl);
        }
        (bl, blb)
    }

    /// Transmission-gate XOR: `y = a ^ b`.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        let y = self.fresh_net("xr");
        let ab = self.fresh_net("ab");
        let bb = self.fresh_net("bb");
        self.inverter(a, ab, 0.4);
        self.inverter(b, bb, 0.4);
        // y = a when b low (pass a through tgate controlled by bb/b),
        // y = ab when b high.
        self.transmission_gate(a, y, bb, b);
        self.transmission_gate(ab, y, b, bb);
        y
    }

    /// Transmission-gate 2:1 multiplexer.
    pub fn mux2(&mut self, a: NetId, b: NetId, sel: NetId) -> NetId {
        let y = self.fresh_net("mx");
        let selb = self.fresh_net("sb");
        self.inverter(sel, selb, 0.4);
        self.transmission_gate(a, y, selb, sel);
        self.transmission_gate(b, y, sel, selb);
        y
    }

    /// Balanced mux tree over `inputs` (padded by repetition to a power of
    /// two); returns the root output.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is empty.
    pub fn mux_tree(&mut self, inputs: &[NetId]) -> NetId {
        assert!(!inputs.is_empty(), "mux tree needs inputs");
        let mut level: Vec<NetId> = inputs.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    let sel = self.fresh_net("ms");
                    next.push(self.mux2(pair[0], pair[1], sel));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Current-starved delay line: `stages` inverters with starving
    /// footers sharing a bias. Returns the delayed output.
    pub fn delay_line(&mut self, input: NetId, stages: usize, bias: NetId) -> NetId {
        let vdd = self.vdd();
        let vss = self.vss();
        let mut prev = input;
        for _ in 0..stages.max(1) {
            let out = self.fresh_net("dl");
            let foot = self.fresh_net("df");
            self.pmos(out, prev, vdd, 0.3);
            self.nmos(out, prev, foot, 0.3);
            self.nmos(foot, bias, vss, 0.3);
            prev = out;
        }
        prev
    }

    /// LDO-style regulator: error amplifier + PMOS pass device + feedback
    /// divider. Returns the regulated output net.
    pub fn ldo(&mut self, vref: NetId, bias: NetId) -> NetId {
        let vdd = self.vdd();
        let vss = self.vss();
        let vout = self.fresh_net("ldo");
        let fb = self.fresh_net("fb");
        let gate = self.ota5t(vref, fb, bias);
        // Large pass PMOS.
        let p = self.sizer.thick_mosfet(&mut self.rng, 1.0);
        let name = self.uname("mpass");
        self.circuit
            .add_mosfet(name, MosPolarity::Pmos, true, vout, gate, vdd, vdd, p);
        // Feedback divider + output cap.
        self.res(vout, fb);
        self.res(fb, vss);
        self.cap(vout, vss);
        vout
    }

    /// Divide-by-two from two back-to-back latches clocked in antiphase.
    pub fn clock_divider(&mut self, clk: NetId) -> NetId {
        let clkb = self.fresh_net("ckb");
        self.inverter(clk, clkb, 0.5);
        let d = self.fresh_net("dq");
        let q1 = self.d_latch(d, clk, clkb);
        let q2 = self.d_latch(q1, clkb, clk);
        // Feedback inversion closes the toggle loop.
        self.inverter(q2, d, 0.5);
        q2
    }

    /// Charge pump driven by `up`/`dn`; returns the pumped output net.
    pub fn charge_pump(&mut self, up: NetId, dn: NetId) -> NetId {
        let vdd = self.vdd();
        let vss = self.vss();
        let out = self.fresh_net("cp");
        let psrc = self.fresh_net("cpp");
        let nsrc = self.fresh_net("cpn");
        // Mirror legs gated by up/dn.
        self.pmos(psrc, up, vdd, 0.6);
        self.pmos(out, up, psrc, 0.6);
        self.nmos(out, dn, nsrc, 0.6);
        self.nmos(nsrc, dn, vss, 0.6);
        self.cap(out, vss);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_netlist::NetClass;

    #[test]
    fn inverter_has_two_transistors() {
        let mut chip = ChipBuilder::new("t", 1);
        let a = chip.fresh_net("a");
        let y = chip.fresh_net("y");
        chip.inverter(a, y, 0.5);
        let c = chip.into_circuit();
        assert_eq!(c.kind_counts().tran, 2);
        c.validate().unwrap();
    }

    #[test]
    fn ring_oscillator_forces_odd_stages() {
        let mut chip = ChipBuilder::new("t", 2);
        chip.ring_oscillator(4); // becomes 5 stages
        let c = chip.into_circuit();
        assert_eq!(c.kind_counts().tran, 10);
    }

    #[test]
    fn opamp_contains_res_and_cap() {
        let mut chip = ChipBuilder::new("t", 3);
        let (p, n, b) = (
            chip.fresh_net("p"),
            chip.fresh_net("n"),
            chip.fresh_net("b"),
        );
        chip.opamp_two_stage(p, n, b);
        let k = chip.circuit().kind_counts();
        assert_eq!(k.res, 1);
        assert_eq!(k.cap, 1);
        assert_eq!(k.tran, 7);
    }

    #[test]
    fn level_shifter_uses_thick_gate() {
        let mut chip = ChipBuilder::new("t", 4);
        let a = chip.fresh_net("a");
        chip.level_shifter(a);
        let k = chip.circuit().kind_counts();
        assert_eq!(k.tran_th, 4);
        assert_eq!(k.tran, 2); // the input inverter
    }

    #[test]
    fn bandgap_has_bjts() {
        let mut chip = ChipBuilder::new("t", 5);
        chip.bandgap_core();
        let k = chip.circuit().kind_counts();
        assert_eq!(k.bjt, 2);
        assert_eq!(k.res, 2);
    }

    #[test]
    fn esd_clamp_has_diodes() {
        let mut chip = ChipBuilder::new("t", 6);
        let pad = chip.fresh_net("pad");
        chip.esd_clamp(pad);
        assert_eq!(chip.circuit().kind_counts().dio, 2);
    }

    #[test]
    fn rails_are_classified() {
        let mut chip = ChipBuilder::new("t", 7);
        let a = chip.fresh_net("a");
        let y = chip.fresh_net("y");
        chip.inverter(a, y, 0.5);
        let c = chip.into_circuit();
        let vdd = c.find_net("vdd").unwrap();
        assert_eq!(c.net_ref(vdd).class, NetClass::Supply);
        let vss = c.find_net("vss").unwrap();
        assert_eq!(c.net_ref(vss).class, NetClass::Ground);
    }

    #[test]
    fn all_blocks_validate() {
        let mut chip = ChipBuilder::new("t", 8);
        let a = chip.fresh_net("a");
        let b = chip.fresh_net("b");
        let clk = chip.fresh_net("clk");
        let clkb = chip.fresh_net("clkb");
        let y = chip.fresh_net("y");
        chip.nand2(a, b, y);
        let y2 = chip.fresh_net("y2");
        chip.nor2(a, b, y2);
        chip.d_latch(a, clk, clkb);
        chip.comparator(a, b, clk);
        chip.current_mirror(a, 3);
        chip.bias_ladder(4);
        chip.rc_filter(a);
        chip.cap_bank(a, 4);
        chip.charge_pump(a, b);
        chip.io_buffer(a);
        let c = chip.into_circuit();
        c.validate().unwrap();
        assert!(c.num_devices() > 40);
        // Mixed device population.
        let k = c.kind_counts();
        assert!(k.tran > 0 && k.tran_th > 0 && k.res > 0 && k.cap > 0);
    }

    #[test]
    fn deterministic_generation() {
        let build = || {
            let mut chip = ChipBuilder::new("t", 99);
            let a = chip.fresh_net("a");
            let b = chip.fresh_net("b");
            chip.opamp_two_stage(a, b, a);
            chip.into_circuit()
        };
        let c1 = build();
        let c2 = build();
        assert_eq!(c1.devices().len(), c2.devices().len());
        for (d1, d2) in c1.devices().iter().zip(c2.devices()) {
            assert_eq!(d1, d2);
        }
    }
}

#[cfg(test)]
mod extended_block_tests {
    use super::*;

    #[test]
    fn sram_column_structure() {
        let mut chip = ChipBuilder::new("t", 21);
        let (bl, blb) = chip.sram_column(4);
        let c = chip.into_circuit();
        c.validate().unwrap();
        // 2 precharge + 4 cells x 6T = 26 transistors.
        assert_eq!(c.kind_counts().tran, 26);
        // Bitlines carry one access transistor per row + precharge.
        let fanouts = c.fanouts();
        assert_eq!(fanouts[bl.0 as usize], 5);
        assert_eq!(fanouts[blb.0 as usize], 5);
    }

    #[test]
    fn xor_and_mux_validate() {
        let mut chip = ChipBuilder::new("t", 22);
        let a = chip.fresh_net("a");
        let b = chip.fresh_net("b");
        chip.xor2(a, b);
        let inputs: Vec<NetId> = (0..5).map(|i| chip.fresh_net(&format!("i{i}"))).collect();
        chip.mux_tree(&inputs);
        let c = chip.into_circuit();
        c.validate().unwrap();
        assert!(c.kind_counts().tran >= 8 + 4 * 6);
    }

    #[test]
    fn mux_tree_single_input_is_passthrough() {
        let mut chip = ChipBuilder::new("t", 23);
        let a = chip.fresh_net("a");
        let y = chip.mux_tree(&[a]);
        assert_eq!(y, a);
        assert_eq!(chip.circuit().num_devices(), 0);
    }

    #[test]
    fn delay_line_and_divider() {
        let mut chip = ChipBuilder::new("t", 24);
        let input = chip.fresh_net("in");
        let bias = chip.fresh_net("bias");
        chip.delay_line(input, 3, bias);
        let clk = chip.fresh_net("clk");
        chip.clock_divider(clk);
        let c = chip.into_circuit();
        c.validate().unwrap();
        // 3 starved stages x 3T = 9, divider = 2 latches x 6T + 2 inverters.
        assert!(c.kind_counts().tran >= 9 + 12 + 4);
    }

    #[test]
    fn ldo_contains_pass_device_and_divider() {
        let mut chip = ChipBuilder::new("t", 25);
        let vref = chip.fresh_net("vref");
        let bias = chip.fresh_net("bias");
        chip.ldo(vref, bias);
        let k = chip.circuit().kind_counts();
        assert_eq!(k.tran_th, 1); // the pass device
        assert_eq!(k.res, 2);
        assert_eq!(k.cap, 1);
        assert_eq!(k.tran, 5); // the OTA
    }
}
