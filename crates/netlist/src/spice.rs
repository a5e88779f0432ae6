//! SPICE-subset netlist parser and writer.
//!
//! The dialect covers what analog/mixed-signal schematic exports use:
//! `M`/`R`/`C`/`D`/`Q`/`X` cards, `key=value` parameters with engineering
//! suffixes, `.subckt`/`.ends`, `+` continuation lines, and `*`/`$`
//! comments.

use std::fmt::{self, Write as _};

use crate::circuit::{Circuit, DeviceKind, DeviceParams, MosPolarity};
use crate::hierarchy::{Instance, Netlist, Subckt};
use crate::units::parse_value;

/// Error from [`parse_spice`], with the 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpiceError {
    /// 1-based line number of the offending card.
    pub line: usize,
    message: String,
}

impl fmt::Display for ParseSpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpiceError {}

/// Parses a SPICE-subset netlist into a hierarchical [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseSpiceError`] on malformed cards, unknown models, or
/// mismatched `.subckt`/`.ends`.
///
/// # Examples
///
/// ```
/// let src = "\
/// * inverter
/// .subckt inv in out vdd vss
/// mp out in vdd vdd pch l=16n nfin=4 nf=2
/// mn out in vss vss nch l=16n nfin=2
/// .ends
/// xtop a b vdd vss inv
/// ";
/// let netlist = paragraph_netlist::parse_spice(src).unwrap();
/// let flat = netlist.flatten().unwrap();
/// assert_eq!(flat.num_devices(), 2);
/// ```
pub fn parse_spice(source: &str) -> Result<Netlist, ParseSpiceError> {
    let mut netlist = Netlist::new("top");
    let mut current: Option<Subckt> = None;

    for (line_no, raw) in logical_lines(source) {
        let err = |message: String| ParseSpiceError {
            line: line_no,
            message,
        };
        let lower = raw.to_ascii_lowercase();
        let tokens: Vec<&str> = lower.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        let card = tokens[0];
        if card.starts_with(".subckt") {
            if current.is_some() {
                return Err(err("nested .subckt is not supported".into()));
            }
            if tokens.len() < 2 {
                return Err(err(".subckt needs a name".into()));
            }
            let name = tokens[1].to_owned();
            let ports = tokens[2..].iter().map(|s| s.to_string()).collect();
            current = Some(Subckt {
                name: name.clone(),
                ports,
                circuit: Circuit::new(name),
                instances: Vec::new(),
            });
            continue;
        }
        if card.starts_with(".ends") {
            let sub = current
                .take()
                .ok_or_else(|| err(".ends without .subckt".into()))?;
            netlist.add_subckt(sub);
            continue;
        }
        if card.starts_with(".end") || card.starts_with(".option") || card.starts_with(".global") {
            continue;
        }
        if card.starts_with('.') {
            // Tolerate unknown dot-cards (models, temperature, ...).
            continue;
        }

        let scope = current.as_mut().unwrap_or(&mut netlist.top);
        parse_card(&tokens, scope).map_err(err)?;
    }

    if let Some(sub) = current {
        return Err(ParseSpiceError {
            line: source.lines().count(),
            message: format!("unterminated .subckt '{}'", sub.name),
        });
    }
    Ok(netlist)
}

/// Joins `+` continuation lines and strips comments; yields
/// `(line_number, logical_line)`.
fn logical_lines(source: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        // `$` / `;` start a trailing comment only at line start or after
        // whitespace (mid-token they are part of a name).
        let mut cut = raw.len();
        let bytes = raw.as_bytes();
        for (pos, c) in raw.char_indices() {
            if (c == '$' || c == ';') && (pos == 0 || bytes[pos - 1].is_ascii_whitespace()) {
                cut = pos;
                break;
            }
        }
        let line = &raw[..cut];
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some(last) = out.last_mut() {
                last.1.push(' ');
                last.1.push_str(cont.trim());
                continue;
            }
        }
        out.push((i + 1, trimmed.to_owned()));
    }
    out
}

fn parse_card(tokens: &[&str], scope: &mut Subckt) -> Result<(), String> {
    let name = tokens[0];
    let kind_char = name.chars().next().unwrap();
    let (positional, kv) = split_params(&tokens[1..]);
    // A key-value parameter the card reads must parse to a finite
    // number: a bad value is an error naming the device and parameter,
    // never a silent default (which would also alias the netlist with
    // one that omits the parameter).
    let get = |key: &str| -> Result<Option<f64>, String> {
        let Some(&(_, text)) = kv.iter().find(|(k, _)| *k == key) else {
            return Ok(None);
        };
        match parse_value(text) {
            Ok(v) if v.is_finite() => Ok(Some(v)),
            _ => Err(format!(
                "device '{name}': parameter {key}={text} is not a finite number"
            )),
        }
    };
    // Counts (`nf`, `nfin`, `m`) must be whole numbers in 1..=u32::MAX,
    // not truncated or saturated into range.
    let count = |key: &str, default: u32| -> Result<u32, String> {
        match get(key)? {
            None => Ok(default),
            Some(v) if (1.0..=f64::from(u32::MAX)).contains(&v) && v.fract() == 0.0 => Ok(v as u32),
            Some(v) => Err(format!(
                "device '{name}': count {key}={v} is not a whole number in 1..={}",
                u32::MAX
            )),
        }
    };

    match kind_char {
        'm' => {
            if positional.len() < 5 {
                return Err(format!("mosfet '{name}' needs 4 nets + model"));
            }
            let model = positional[4];
            let (polarity, thick) =
                mos_model(model).ok_or_else(|| format!("unknown mosfet model '{model}'"))?;
            let params = DeviceParams {
                l: get("l")?.unwrap_or(16e-9),
                w: get("w")?.unwrap_or(0.0),
                nf: count("nf", 1)?,
                nfin: count("nfin", 2)?,
                multi: count("m", 1)?,
                value: 0.0,
            };
            let d = scope.circuit.net(positional[0]);
            let g = scope.circuit.net(positional[1]);
            let s = scope.circuit.net(positional[2]);
            let b = scope.circuit.net(positional[3]);
            scope
                .circuit
                .add_mosfet(name, polarity, thick, d, g, s, b, params);
        }
        'r' => {
            if positional.len() < 3 {
                return Err(format!("resistor '{name}' needs 2 nets + value"));
            }
            let p = scope.circuit.net(positional[0]);
            let n = scope.circuit.net(positional[1]);
            let ohms = parse_value(positional[2]).map_err(|e| e.to_string())?;
            let l = get("l")?.unwrap_or(1e-6);
            scope.circuit.add_resistor(name, p, n, ohms, l);
        }
        'c' => {
            if positional.len() < 3 {
                return Err(format!("capacitor '{name}' needs 2 nets + value"));
            }
            let p = scope.circuit.net(positional[0]);
            let n = scope.circuit.net(positional[1]);
            let farads = parse_value(positional[2]).map_err(|e| e.to_string())?;
            let multi = count("m", 1)?;
            scope.circuit.add_capacitor(name, p, n, farads, multi);
        }
        'd' => {
            if positional.len() < 2 {
                return Err(format!("diode '{name}' needs 2 nets"));
            }
            let p = scope.circuit.net(positional[0]);
            let n = scope.circuit.net(positional[1]);
            let nf = count("nf", 1)?;
            scope.circuit.add_diode(name, p, n, nf);
        }
        'q' => {
            if positional.len() < 4 {
                return Err(format!("bjt '{name}' needs 3 nets + model"));
            }
            let c = scope.circuit.net(positional[0]);
            let b = scope.circuit.net(positional[1]);
            let e = scope.circuit.net(positional[2]);
            let pnp = positional[3].contains("pnp");
            scope.circuit.add_bjt(name, pnp, c, b, e);
        }
        'x' => {
            if positional.len() < 2 {
                return Err(format!("instance '{name}' needs nets + subckt name"));
            }
            let subckt = positional.last().unwrap().to_string();
            let conns = positional[..positional.len() - 1]
                .iter()
                .map(|s| s.to_string())
                .collect();
            scope.instances.push(Instance {
                name: name.to_owned(),
                subckt,
                conns,
            });
        }
        other => return Err(format!("unsupported card '{other}'")),
    }
    Ok(())
}

fn split_params<'a>(tokens: &[&'a str]) -> (Vec<&'a str>, Vec<(&'a str, &'a str)>) {
    let mut positional = Vec::new();
    let mut kv = Vec::new();
    for t in tokens {
        match t.split_once('=') {
            Some((k, v)) => kv.push((k, v)),
            None => positional.push(*t),
        }
    }
    (positional, kv)
}

fn mos_model(model: &str) -> Option<(MosPolarity, bool)> {
    let thick = model.contains("25") || model.contains("hv") || model.contains("thick");
    if model.starts_with('n') {
        Some((MosPolarity::Nmos, thick))
    } else if model.starts_with('p') {
        Some((MosPolarity::Pmos, thick))
    } else {
        None
    }
}

/// Serialises a hierarchical netlist back to SPICE text.
///
/// Round-trips with [`parse_spice`]: `parse(write(n))` reproduces the same
/// flattened circuit.
pub fn write_spice(netlist: &Netlist) -> String {
    let mut out = format!("* netlist {}\n", netlist.top.name);
    for sub in &netlist.subckts {
        out.push_str(&format!(".subckt {} {}\n", sub.name, sub.ports.join(" ")));
        write_body(&mut out, &sub.circuit, &sub.instances).expect(STRING_WRITE);
        out.push_str(".ends\n");
    }
    write_body(&mut out, &netlist.top.circuit, &netlist.top.instances).expect(STRING_WRITE);
    out.push_str(".end\n");
    out
}

/// Serialises a flat circuit as a top-level SPICE deck.
pub fn write_flat_spice(circuit: &Circuit) -> String {
    let mut out = format!("* flat circuit {}\n", circuit.name);
    write_body(&mut out, circuit, &[]).expect(STRING_WRITE);
    out.push_str(".end\n");
    out
}

const STRING_WRITE: &str = "writing to a String cannot fail";

/// Appends one card per device, then one per instance, straight into
/// `out`.
fn write_body(out: &mut String, circuit: &Circuit, instances: &[Instance]) -> fmt::Result {
    use crate::units::format_value;
    let net = |id| &circuit.net_ref(id).name;
    for d in circuit.devices() {
        let p = &d.params;
        match d.kind {
            DeviceKind::Mosfet {
                polarity,
                thick_gate,
            } => {
                let model = match (polarity, thick_gate) {
                    (MosPolarity::Nmos, false) => "nch",
                    (MosPolarity::Pmos, false) => "pch",
                    (MosPolarity::Nmos, true) => "nch_hv",
                    (MosPolarity::Pmos, true) => "pch_hv",
                };
                writeln!(
                    out,
                    "{} {} {} {} {} {} l={} nfin={} nf={} m={}",
                    CardName(&d.name, 'm'),
                    net(d.conns[0].1),
                    net(d.conns[1].1),
                    net(d.conns[2].1),
                    net(d.conns[3].1),
                    model,
                    format_value(p.l),
                    p.nfin,
                    p.nf,
                    p.multi,
                )?;
            }
            DeviceKind::Resistor => writeln!(
                out,
                "{} {} {} {} l={}",
                CardName(&d.name, 'r'),
                net(d.conns[0].1),
                net(d.conns[1].1),
                format_value(p.value),
                format_value(p.l),
            )?,
            DeviceKind::Capacitor => writeln!(
                out,
                "{} {} {} {} m={}",
                CardName(&d.name, 'c'),
                net(d.conns[0].1),
                net(d.conns[1].1),
                format_value(p.value),
                p.multi,
            )?,
            DeviceKind::Diode => writeln!(
                out,
                "{} {} {} dnom nf={}",
                CardName(&d.name, 'd'),
                net(d.conns[0].1),
                net(d.conns[1].1),
                p.nf,
            )?,
            DeviceKind::Bjt { pnp } => writeln!(
                out,
                "{} {} {} {} {}",
                CardName(&d.name, 'q'),
                net(d.conns[0].1),
                net(d.conns[1].1),
                net(d.conns[2].1),
                if pnp { "pnp" } else { "npn" },
            )?,
        }
    }
    for inst in instances {
        writeln!(
            out,
            "{} {} {}",
            CardName(&inst.name, 'x'),
            inst.conns.join(" "),
            inst.subckt,
        )?;
    }
    Ok(())
}

/// A card name as written: SPICE cards are typed by their first letter,
/// so a name that would otherwise parse as a different card (device
/// names from flattening may start with any letter) gets `<prefix>_`.
struct CardName<'a>(&'a str, char);

impl fmt::Display for CardName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CardName(name, prefix) = *self;
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.eq_ignore_ascii_case(&prefix))
        {
            write!(f, "{prefix}_")?;
        }
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NetClass;

    const INV_CHAIN: &str = "\
* two inverters
.subckt inv in out vdd vss
mp out in vdd vdd pch l=16n nfin=4 nf=2 m=1
mn out in vss vss nch l=16n nfin=2
.ends
x0 a b vdd vss inv
x1 b z vdd vss inv
c0 z vss 1.5f
.end
";

    #[test]
    fn parses_and_flattens_chain() {
        let nl = parse_spice(INV_CHAIN).unwrap();
        assert_eq!(nl.subckts.len(), 1);
        let flat = nl.flatten().unwrap();
        flat.validate().unwrap();
        assert_eq!(flat.num_devices(), 5);
        assert_eq!(flat.kind_counts().cap, 1);
        let vdd = flat.find_net("vdd").unwrap();
        assert_eq!(flat.net_ref(vdd).class, NetClass::Supply);
    }

    #[test]
    fn continuation_lines_join() {
        let src = "\
mp out in vdd vdd pch l=16n\n+ nfin=8 nf=4\n.end\n";
        let nl = parse_spice(src).unwrap();
        let flat = nl.flatten().unwrap();
        assert_eq!(flat.devices()[0].params.nfin, 8);
        assert_eq!(flat.devices()[0].params.nf, 4);
    }

    #[test]
    fn comments_are_stripped() {
        let src = "* header\nr1 a b 2.2k $ trailing\nc1 a 0 1p ; other\n.end\n";
        let flat = parse_spice(src).unwrap().flatten().unwrap();
        assert_eq!(flat.num_devices(), 2);
        assert_eq!(flat.devices()[0].params.value, 2200.0);
    }

    #[test]
    fn roundtrip_preserves_flat_circuit() {
        let nl = parse_spice(INV_CHAIN).unwrap();
        let flat1 = nl.flatten().unwrap();
        let text = write_spice(&nl);
        let flat2 = parse_spice(&text).unwrap().flatten().unwrap();
        assert_eq!(flat1.num_devices(), flat2.num_devices());
        assert_eq!(flat1.num_nets(), flat2.num_nets());
        assert_eq!(flat1.kind_counts(), flat2.kind_counts());
    }

    #[test]
    fn error_reports_line_number() {
        let src = "* ok\nm1 a b c\n";
        let err = parse_spice(src).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("mosfet"));
    }

    #[test]
    fn unterminated_subckt_errors() {
        let err = parse_spice(".subckt foo a b\nr1 a b 1k\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn thick_gate_models() {
        let flat = parse_spice("m1 d g s b nch_hv l=150n\n.end\n")
            .unwrap()
            .flatten()
            .unwrap();
        assert!(matches!(
            flat.devices()[0].kind,
            DeviceKind::Mosfet {
                thick_gate: true,
                polarity: MosPolarity::Nmos
            }
        ));
    }

    #[test]
    fn write_flat_roundtrip() {
        let flat1 = parse_spice(INV_CHAIN).unwrap().flatten().unwrap();
        let text = write_flat_spice(&flat1);
        let flat2 = parse_spice(&text).unwrap().flatten().unwrap();
        assert_eq!(flat1.kind_counts(), flat2.kind_counts());
        // Prefixed names still resolve to the same devices.
        assert_eq!(flat1.num_nets(), flat2.num_nets());
    }
}
