//! Bit-accurate netlist simulation.

use std::error::Error;
use std::fmt;

use dp_bitvec::BitVec;

use crate::netlist::NetDriver;
use crate::Netlist;

/// Error from [`Netlist::simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Wrong number of input buses supplied.
    WrongInputCount {
        /// How many buses the netlist declares.
        expected: usize,
        /// How many values were supplied.
        found: usize,
    },
    /// A supplied input value has the wrong width.
    InputWidthMismatch {
        /// Index of the offending input bus.
        index: usize,
        /// Declared bus width.
        expected: usize,
        /// Width of the supplied value.
        found: usize,
    },
    /// The netlist failed its structural check.
    Invalid(crate::NetlistError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WrongInputCount { expected, found } => {
                write!(f, "expected {expected} input bus(es), found {found}")
            }
            SimError::InputWidthMismatch { index, expected, found } => {
                write!(f, "input #{index} expects width {expected}, found {found}")
            }
            SimError::Invalid(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::NetlistError> for SimError {
    fn from(e: crate::NetlistError) -> Self {
        SimError::Invalid(e)
    }
}

impl Netlist {
    /// Simulates the netlist on the given input bus values (in declaration
    /// order, least significant bit first within each bus) and returns one
    /// [`BitVec`] per output bus.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatch or structural defects.
    pub fn simulate(&self, inputs: &[BitVec]) -> Result<Vec<BitVec>, SimError> {
        self.check()?;
        if inputs.len() != self.inputs().len() {
            return Err(SimError::WrongInputCount {
                expected: self.inputs().len(),
                found: inputs.len(),
            });
        }
        let mut values = vec![false; self.num_nets()];
        for (index, ((_, bits), value)) in self.inputs().iter().zip(inputs).enumerate() {
            if value.width() != bits.len() {
                return Err(SimError::InputWidthMismatch {
                    index,
                    expected: bits.len(),
                    found: value.width(),
                });
            }
            for (k, &net) in bits.iter().enumerate() {
                values[net.index()] = value.bit(k);
            }
        }
        for (i, d) in self.drivers.iter().enumerate() {
            if let NetDriver::Const(v) = d {
                values[i] = *v;
            }
        }
        for gate in &self.gates {
            // Arity-1 cells ignore `b`; their second slot duplicates pin 0.
            let a = values[gate.ins[0].index()];
            let b = values[gate.ins[1].index()];
            values[gate.output.index()] = gate.kind.eval(a, b);
        }
        Ok(self
            .outputs()
            .iter()
            .map(|(_, bits)| BitVec::from_fn(bits.len(), |k| values[bits[k].index()]))
            .collect())
    }

    /// Simulates the netlist on many input assignments at once using the
    /// word-parallel encoding of `DESIGN.md` §13: each net carries one
    /// `u64` whose bit `l` is that net's value in lane `l`, so a single
    /// pass in gate-id order evaluates up to 64 vectors. More than 64 lanes are
    /// processed in chunks of 64.
    ///
    /// `lanes[l]` is one full input assignment exactly as
    /// [`Netlist::simulate`] takes it; the result holds the matching
    /// output values per lane, identical to calling `simulate` on each
    /// assignment separately.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on structural defects, or on the first lane
    /// (in order) whose assignment mismatches the interface.
    pub fn simulate_batch(&self, lanes: &[Vec<BitVec>]) -> Result<Vec<Vec<BitVec>>, SimError> {
        self.check()?;
        for lane in lanes {
            if lane.len() != self.inputs().len() {
                return Err(SimError::WrongInputCount {
                    expected: self.inputs().len(),
                    found: lane.len(),
                });
            }
            for (index, ((_, bits), value)) in self.inputs().iter().zip(lane).enumerate() {
                if value.width() != bits.len() {
                    return Err(SimError::InputWidthMismatch {
                        index,
                        expected: bits.len(),
                        found: value.width(),
                    });
                }
            }
        }
        let mut results = Vec::with_capacity(lanes.len());
        let mut words = vec![0u64; self.num_nets()];
        for chunk in lanes.chunks(64) {
            let lane_mask = if chunk.len() == 64 { u64::MAX } else { (1u64 << chunk.len()) - 1 };
            words.fill(0);
            for (i, d) in self.drivers.iter().enumerate() {
                if let NetDriver::Const(true) = d {
                    words[i] = lane_mask;
                }
            }
            for (l, lane) in chunk.iter().enumerate() {
                for ((_, bits), value) in self.inputs().iter().zip(lane) {
                    for (k, &net) in bits.iter().enumerate() {
                        if value.bit(k) {
                            words[net.index()] |= 1u64 << l;
                        }
                    }
                }
            }
            for gate in &self.gates {
                // Arity-1 cells ignore `b`; their second slot duplicates pin 0.
                let a = words[gate.ins[0].index()];
                let b = words[gate.ins[1].index()];
                words[gate.output.index()] = gate.kind.eval_word(a, b) & lane_mask;
            }
            for l in 0..chunk.len() {
                results.push(
                    self.outputs()
                        .iter()
                        .map(|(_, bits)| {
                            BitVec::from_fn(bits.len(), |k| (words[bits[k].index()] >> l) & 1 == 1)
                        })
                        .collect(),
                );
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellKind;

    /// A 2-bit ripple adder built by hand.
    fn two_bit_adder() -> Netlist {
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let b = n.input("b", 2);
        // Bit 0: half adder.
        let s0 = n.gate(CellKind::Xor2, &[a[0], b[0]]);
        let c0 = n.gate(CellKind::And2, &[a[0], b[0]]);
        // Bit 1: full adder.
        let t = n.gate(CellKind::Xor2, &[a[1], b[1]]);
        let s1 = n.gate(CellKind::Xor2, &[t, c0]);
        let u = n.gate(CellKind::And2, &[a[1], b[1]]);
        let v = n.gate(CellKind::And2, &[t, c0]);
        let c1 = n.gate(CellKind::Or2, &[u, v]);
        n.output("s", vec![s0, s1, c1]);
        n
    }

    #[test]
    fn adder_is_exhaustively_correct() {
        let n = two_bit_adder();
        for a in 0..4u64 {
            for b in 0..4u64 {
                let out = n.simulate(&[BitVec::from_u64(2, a), BitVec::from_u64(2, b)]).unwrap();
                assert_eq!(out[0].to_u64(), Some(a + b), "{a}+{b}");
            }
        }
    }

    #[test]
    fn constants_simulate() {
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let one = n.const1();
        let x = n.gate(CellKind::Xor2, &[a, one]); // !a
        n.output("o", vec![x]);
        let out = n.simulate(&[BitVec::from_u64(1, 0)]).unwrap();
        assert_eq!(out[0].to_u64(), Some(1));
    }

    #[test]
    fn interface_errors() {
        let n = two_bit_adder();
        assert!(matches!(n.simulate(&[]), Err(SimError::WrongInputCount { .. })));
        assert!(matches!(
            n.simulate(&[BitVec::zero(3), BitVec::zero(2)]),
            Err(SimError::InputWidthMismatch { index: 0, .. })
        ));
    }

    #[test]
    fn batch_matches_scalar_exhaustively() {
        let n = two_bit_adder();
        let lanes: Vec<Vec<BitVec>> = (0..4u64)
            .flat_map(|a| {
                (0..4u64).map(move |b| vec![BitVec::from_u64(2, a), BitVec::from_u64(2, b)])
            })
            .collect();
        let batch = n.simulate_batch(&lanes).unwrap();
        assert_eq!(batch.len(), lanes.len());
        for (lane, out) in lanes.iter().zip(&batch) {
            assert_eq!(out, &n.simulate(lane).unwrap());
        }
    }

    #[test]
    fn batch_chunks_past_64_lanes() {
        // 100 lanes force two word-parallel passes; constants must
        // broadcast correctly into both chunks.
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let one = n.const1();
        let x = n.gate(CellKind::Xor2, &[a, one]); // !a
        n.output("o", vec![x]);
        let lanes: Vec<Vec<BitVec>> =
            (0..100u64).map(|i| vec![BitVec::from_u64(1, i % 2)]).collect();
        let batch = n.simulate_batch(&lanes).unwrap();
        for (i, out) in batch.iter().enumerate() {
            assert_eq!(out[0].to_u64(), Some(1 - (i as u64 % 2)), "lane {i}");
        }
    }

    #[test]
    fn batch_interface_errors() {
        let n = two_bit_adder();
        assert!(n.simulate_batch(&[]).unwrap().is_empty());
        assert!(matches!(n.simulate_batch(&[vec![]]), Err(SimError::WrongInputCount { .. })));
        assert!(matches!(
            n.simulate_batch(&[
                vec![BitVec::zero(2), BitVec::zero(2)],
                vec![BitVec::zero(2), BitVec::zero(3)]
            ]),
            Err(SimError::InputWidthMismatch { index: 1, .. })
        ));
    }
}
