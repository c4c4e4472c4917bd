//! Versioned byte codec for [`Netlist`] — the artifact store's on-disk
//! representation of a synthesized netlist.
//!
//! The format (`DPN1`) is a direct image of the internal arenas: the net
//! driver table, the gate table, and the named port buses, all integers as
//! LEB128 varints. Decoding therefore round-trips a netlist **exactly** —
//! same net ids, same gate ids, same port order — which is what lets the
//! serve layer's differential audit compare a cache hit bit-for-bit
//! against a cold run.
//!
//! Decoding is total: any byte sequence either yields a structurally valid
//! netlist or a [`WireDecodeError`] carrying the offset of the first
//! defect. Truncated, bit-flipped or garbage input must never panic —
//! every cross-reference (gate↔net driver bijection, port net ranges,
//! constant-net uniqueness, every gate reading only earlier nets) is
//! validated, and fanout counts are recomputed rather than trusted.

use std::error::Error;
use std::fmt;

use crate::netlist::{Gate, NetDriver};
use crate::{CellKind, Drive, GateId, NetId, Netlist};

/// Format magic: `DPN1` (DataPath Netlist, version 1).
const MAGIC: &[u8; 4] = b"DPN1";

/// Driver tag bytes.
const TAG_UNDRIVEN: u8 = 0;
const TAG_INPUT: u8 = 1;
const TAG_CONST0: u8 = 2;
const TAG_CONST1: u8 = 3;
const TAG_GATE: u8 = 4;

/// A defect found while decoding a serialized netlist.
///
/// Carries the byte offset at which the defect was detected so a corrupt
/// store entry can be diagnosed; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDecodeError {
    /// Human-readable description of the defect.
    pub message: String,
    /// Byte offset in the input at which the defect was detected.
    pub offset: usize,
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist decode error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for WireDecodeError {}

fn kind_tag(kind: CellKind) -> u8 {
    match kind {
        CellKind::Inv => 0,
        CellKind::Buf => 1,
        CellKind::Nand2 => 2,
        CellKind::Nor2 => 3,
        CellKind::And2 => 4,
        CellKind::Or2 => 5,
        CellKind::Xor2 => 6,
        CellKind::Xnor2 => 7,
    }
}

fn tag_kind(tag: u8) -> Option<CellKind> {
    CellKind::ALL.get(tag as usize).copied()
}

fn drive_tag(drive: Drive) -> u8 {
    match drive {
        Drive::X1 => 0,
        Drive::X2 => 1,
        Drive::X4 => 2,
    }
}

fn tag_drive(tag: u8) -> Option<Drive> {
    match tag {
        0 => Some(Drive::X1),
        1 => Some(Drive::X2),
        2 => Some(Drive::X4),
        _ => None,
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

impl Netlist {
    /// Serializes the netlist into the `DPN1` wire format.
    ///
    /// [`Netlist::from_bytes`] reconstructs an identical netlist: same net
    /// and gate ids, same port names and order, same drive strengths.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Rough upper bound: tag + varints per net/gate, names verbatim.
        let mut out = Vec::with_capacity(16 + self.drivers.len() * 2 + self.gates.len() * 8);
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, self.drivers.len() as u64);
        for d in &self.drivers {
            match *d {
                NetDriver::Undriven => out.push(TAG_UNDRIVEN),
                NetDriver::Input => out.push(TAG_INPUT),
                NetDriver::Const(false) => out.push(TAG_CONST0),
                NetDriver::Const(true) => out.push(TAG_CONST1),
                NetDriver::Gate(g) => {
                    out.push(TAG_GATE);
                    put_varint(&mut out, g.index() as u64);
                }
            }
        }
        put_varint(&mut out, self.gates.len() as u64);
        for g in &self.gates {
            out.push(kind_tag(g.kind));
            out.push(drive_tag(g.drive));
            for &pin in g.inputs() {
                put_varint(&mut out, pin.index() as u64);
            }
            put_varint(&mut out, g.output.index() as u64);
        }
        for buses in [&self.inputs, &self.outputs] {
            put_varint(&mut out, buses.len() as u64);
            for (name, bits) in buses {
                put_varint(&mut out, name.len() as u64);
                out.extend_from_slice(name.as_bytes());
                put_varint(&mut out, bits.len() as u64);
                for &b in bits {
                    put_varint(&mut out, b.index() as u64);
                }
            }
        }
        out
    }

    /// Decodes a netlist from the `DPN1` wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`WireDecodeError`] on any malformed input: wrong magic,
    /// truncation, out-of-range tags or ids, a broken gate↔driver
    /// bijection, a gate reading its own or a later gate's output,
    /// duplicate constant nets, or trailing bytes. No input panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Netlist, WireDecodeError> {
        let mut d = Decoder { bytes, pos: 0 };
        d.expect_magic()?;
        let num_nets = d.length("net count", u32::MAX as u64)?;
        let mut drivers = Vec::with_capacity(num_nets);
        let mut const_nets: [Option<NetId>; 2] = [None, None];
        for i in 0..num_nets {
            let at = d.pos;
            let tag = d.byte("net driver tag")?;
            let driver = match tag {
                TAG_UNDRIVEN => NetDriver::Undriven,
                TAG_INPUT => NetDriver::Input,
                TAG_CONST0 | TAG_CONST1 => {
                    let value = tag == TAG_CONST1;
                    let slot = &mut const_nets[usize::from(value)];
                    if slot.is_some() {
                        return Err(
                            d.error_at(at, format!("duplicate constant-{} net", u8::from(value)))
                        );
                    }
                    *slot = Some(NetId::from_index(i));
                    NetDriver::Const(value)
                }
                TAG_GATE => NetDriver::Gate(GateId::from_index(
                    d.length("driver gate id", u32::MAX as u64)?,
                )),
                other => return Err(d.error_at(at, format!("unknown net driver tag {other}"))),
            };
            drivers.push(driver);
        }
        let num_gates = d.length("gate count", u32::MAX as u64)?;
        let mut gates = Vec::with_capacity(num_gates);
        for i in 0..num_gates {
            let start = d.pos;
            let kind = {
                let at = d.pos;
                let tag = d.byte("cell kind")?;
                tag_kind(tag)
                    .ok_or_else(|| d.error_at(at, format!("unknown cell kind tag {tag}")))?
            };
            let drive = {
                let at = d.pos;
                let tag = d.byte("drive strength")?;
                tag_drive(tag)
                    .ok_or_else(|| d.error_at(at, format!("unknown drive strength tag {tag}")))?
            };
            let mut ins = [NetId::from_index(0); 2];
            for slot in ins.iter_mut().take(kind.arity()) {
                *slot = d.net("gate input", num_nets)?;
            }
            if kind.arity() == 1 {
                ins[1] = ins[0]; // arity-1 cells duplicate the pin inline
            }
            // Gates read only earlier nets, so gate-id order is topological.
            for &pin in &ins {
                if let NetDriver::Gate(src) = drivers[pin.index()] {
                    if src.index() >= i {
                        return Err(d.error_at(
                            start,
                            format!("gate g{i} reads {pin}, driven by {src}, not an earlier gate"),
                        ));
                    }
                }
            }
            let output = d.net("gate output", num_nets)?;
            if drivers.get(output.index()) != Some(&NetDriver::Gate(GateId::from_index(i))) {
                return Err(
                    d.error_at(d.pos, format!("gate {i} output net {output} is not driven by it"))
                );
            }
            gates.push(Gate { kind, drive, ins, output });
        }
        // Every Gate driver must point at an existing gate whose recorded
        // output is that very net — the other half of the bijection.
        for (i, driver) in drivers.iter().enumerate() {
            if let NetDriver::Gate(g) = driver {
                let ok = gates.get(g.index()).is_some_and(|gate| gate.output.index() == i);
                if !ok {
                    return Err(d.error_at(
                        d.pos,
                        format!("net w{i} claims driver {g} which does not drive it"),
                    ));
                }
            }
        }
        let mut ports: [Vec<(String, Vec<NetId>)>; 2] = [Vec::new(), Vec::new()];
        for (which, port) in ports.iter_mut().enumerate() {
            let count = d.length("port bus count", u32::MAX as u64)?;
            for _ in 0..count {
                let name = d.string("port name")?;
                let width = d.length("port width", u32::MAX as u64)?;
                let mut bits = Vec::with_capacity(width);
                for _ in 0..width {
                    let n = d.net("port bit", num_nets)?;
                    if which == 0 && drivers[n.index()] != NetDriver::Input {
                        return Err(d.error_at(
                            d.pos,
                            format!("input port bit {n} is not an input-driven net"),
                        ));
                    }
                    bits.push(n);
                }
                port.push((name, bits));
            }
        }
        if d.pos != bytes.len() {
            return Err(d.error_at(d.pos, format!("{} trailing bytes", bytes.len() - d.pos)));
        }
        let [inputs, outputs] = ports;
        // Fanout is derived state: recompute it instead of trusting the
        // input, exactly as construction-time accounting would have.
        let mut fanout = vec![0u32; num_nets];
        for g in &gates {
            for &pin in g.inputs() {
                fanout[pin.index()] += 1;
            }
        }
        for (_, bits) in &outputs {
            for &b in bits {
                fanout[b.index()] += 1;
            }
        }
        Ok(Netlist { drivers, fanout, gates, inputs, outputs, const_nets })
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Decoder<'_> {
    fn error_at(&self, offset: usize, message: String) -> WireDecodeError {
        WireDecodeError { message, offset }
    }

    fn byte(&mut self, what: &str) -> Result<u8, WireDecodeError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.error_at(self.pos, format!("truncated while reading {what}"))),
        }
    }

    fn expect_magic(&mut self) -> Result<(), WireDecodeError> {
        for expected in MAGIC {
            let got = self.byte("magic")?;
            if got != *expected {
                return Err(self.error_at(self.pos - 1, "bad magic (not a DPN1 netlist)".into()));
            }
        }
        Ok(())
    }

    fn varint(&mut self, what: &str) -> Result<u64, WireDecodeError> {
        let start = self.pos;
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte(what)?;
            if shift >= 63 && b > 1 {
                return Err(self.error_at(start, format!("varint overflow in {what}")));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A varint bounded by `max`, returned as `usize`.
    fn length(&mut self, what: &str, max: u64) -> Result<usize, WireDecodeError> {
        let start = self.pos;
        let v = self.varint(what)?;
        if v > max {
            return Err(self.error_at(start, format!("{what} {v} exceeds limit {max}")));
        }
        Ok(v as usize)
    }

    /// A net id varint validated against the declared net count.
    fn net(&mut self, what: &str, num_nets: usize) -> Result<NetId, WireDecodeError> {
        let start = self.pos;
        let v = self.varint(what)?;
        if v >= num_nets as u64 {
            return Err(self.error_at(start, format!("{what} w{v} out of range ({num_nets} nets)")));
        }
        Ok(NetId::from_index(v as usize))
    }

    fn string(&mut self, what: &str) -> Result<String, WireDecodeError> {
        let len = self.length(what, 1 << 20)?;
        let start = self.pos;
        let end = start.checked_add(len).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(self.error_at(start, format!("truncated while reading {what}")));
        };
        self.pos = end;
        match std::str::from_utf8(&self.bytes[start..end]) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(self.error_at(start, format!("{what} is not valid UTF-8"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::tests::{assert_invariants, random_netlist};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Netlist {
        let mut n = Netlist::new();
        let a = n.input("a", 3);
        let b = n.input("b", 2);
        let one = n.const1();
        let x = n.gate(CellKind::Xor2, &[a[0], b[0]]);
        let y = n.gate_with_drive(CellKind::Nand2, Drive::X4, &[x, a[1]]);
        let z = n.gate(CellKind::Inv, &[y]);
        let w = n.gate(CellKind::And2, &[z, one]);
        n.output("s", vec![x, w]);
        n.output("c", vec![a[2], b[1]]);
        n
    }

    #[test]
    fn round_trip_is_exact() {
        let n = sample();
        let bytes = n.to_bytes();
        let back = Netlist::from_bytes(&bytes).expect("round trip");
        assert_eq!(format!("{back:?}"), format!("{n:?}"));
        // And the decoded netlist re-encodes to the same bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_netlist_round_trips() {
        let n = Netlist::new();
        let back = Netlist::from_bytes(&n.to_bytes()).expect("empty round trip");
        assert_eq!(format!("{back:?}"), format!("{n:?}"));
    }

    #[test]
    fn corrupt_bytes_error_instead_of_panicking() {
        let bytes = sample().to_bytes();
        // Every truncation must fail cleanly (a valid shorter message is
        // impossible: ports come last and the sample has non-empty ones).
        for len in 0..bytes.len() {
            let r = Netlist::from_bytes(&bytes[..len]);
            assert!(r.is_err(), "truncation to {len} bytes decoded");
        }
        // Every single-byte corruption either decodes to a *valid* netlist
        // or errors — never panics, and never leaves broken invariants.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x41;
            if let Ok(n) = Netlist::from_bytes(&evil) {
                for g in n.gate_ids() {
                    let out = n.gate_output(g);
                    assert_eq!(n.driver_gate(out), Some(g), "byte {i}: bijection broken");
                }
                assert_invariants(&n);
            }
        }
    }

    #[test]
    fn gate_driver_bijection_is_enforced() {
        // Point net 1's driver at gate 0 without gate 0 driving it.
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        n.input("b", 1);
        let x = n.gate(CellKind::Inv, &[a]);
        n.output("o", vec![x]);
        let mut bytes = n.to_bytes();
        // Net table starts right after magic + count varint; net 1 is the
        // input "b", which no gate reads: tag TAG_INPUT at offset 6. Make
        // it claim gate 0.
        assert_eq!(bytes[6], TAG_INPUT);
        bytes[6] = TAG_GATE;
        bytes.insert(7, 0); // gate id varint
        let err = Netlist::from_bytes(&bytes).expect_err("broken bijection must not decode");
        assert!(err.message.contains("does not drive"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        let err = Netlist::from_bytes(&bytes).expect_err("trailing byte");
        assert!(err.message.contains("trailing"), "{err}");
    }

    /// Encodes `n` after pointing pin 0 of gate `gate` at the output of
    /// gate `src` (the encoder does not validate), and decodes the bytes.
    fn decode_with_pin_on(gate: usize, src: usize) -> (Vec<u8>, WireDecodeError) {
        let mut n = sample();
        n.gates[gate].ins[0] = n.gates[src].output;
        let bytes = n.to_bytes();
        let err = Netlist::from_bytes(&bytes).expect_err("a gate reading a later net");
        (bytes, err)
    }

    #[test]
    fn a_gate_reading_its_own_or_a_later_output_is_rejected() {
        // The sample's g1 is a Nand2 reading g0; g2 is an Inv reading g1.
        for (gate, src) in [(1, 1), (1, 2), (0, 3), (2, 2)] {
            let (bytes, err) = decode_with_pin_on(gate, src);
            let named = format!("gate g{gate} reads");
            assert!(err.message.contains(&named), "{gate} <- {src}: {err}");
            assert!(err.message.contains(&format!("driven by g{src}")), "{err}");
            // The offset is where that gate's record starts: cut there,
            // the decoder runs out of bytes at the gate's cell kind.
            let cut = Netlist::from_bytes(&bytes[..err.offset]).expect_err("truncated");
            assert_eq!(cut.offset, err.offset, "{cut}");
            assert!(cut.message.contains("cell kind"), "{cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random netlists (with buffers put in front of some readers)
        /// under random byte flips, inserts, deletes and truncations:
        /// decoding never panics, and whatever decodes keeps the netlist
        /// invariants, checks `Ok` or `Undriven`, and round-trips
        /// unchanged.
        #[test]
        fn mangled_bytes_decode_to_well_formed_netlists_or_errors(seed in any::<u64>(), gates in 0usize..30, edits in 1usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, nets) = random_netlist(&mut rng, gates);
            if rng.gen_bool(0.5) {
                let net = nets[rng.gen_range(0..nets.len())];
                let readers: Vec<(GateId, usize)> = n
                    .gate_ids()
                    .filter(|&g| n.gate_inputs(g)[0] == net)
                    .map(|g| (g, 0))
                    .collect();
                n.insert_buffer(net, &readers);
            }
            let mut bytes = n.to_bytes();
            for _ in 0..edits {
                let at = rng.gen_range(0..=bytes.len());
                match rng.gen_range(0..4) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8),
                    1 => bytes.insert(at, rng.gen_range(0..=255u32) as u8),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            if let Ok(decoded) = Netlist::from_bytes(&bytes) {
                assert_invariants(&decoded);
                prop_assert!(matches!(decoded.check(), Ok(()) | Err(crate::NetlistError::Undriven { .. })));
                let again = Netlist::from_bytes(&decoded.to_bytes()).expect("re-encoding decodes");
                prop_assert_eq!(format!("{again:?}"), format!("{decoded:?}"));
            }
        }
    }
}
