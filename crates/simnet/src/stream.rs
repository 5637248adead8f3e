//! A minimal TCP-shaped stream layer with 4.2BSD-style predictable
//! initial sequence numbers.
//!
//! "Morris described an attack based on the slow increment rate of the
//! initial sequence number counter in some TCP implementations ... it was
//! possible to spoof one half of a preauthenticated TCP connection
//! without ever seeing any responses from the targeted host."
//! [`IsnGenerator`] reproduces the 4.2BSD discipline (+128/second,
//! +64/connection); [`StreamListener`] implements enough of the handshake
//! and sequencing that the blind-spoof attack (A2) can be run for real.

use crate::clock::SimTime;
use crate::host::{Service, ServiceCtx};
use crate::net::Endpoint;
use std::collections::BTreeMap;

/// The 4.2BSD initial-sequence-number discipline: a global counter
/// bumped 128 times a second and by 64 on every connection.
#[derive(Clone, Debug)]
pub struct IsnGenerator {
    base: u32,
    connections: u32,
}

impl IsnGenerator {
    /// Starts the counter at `base`.
    pub fn new(base: u32) -> Self {
        IsnGenerator { base, connections: 0 }
    }

    /// Issues the ISN for a new connection at local time `now`.
    pub fn next(&mut self, now: SimTime) -> u32 {
        self.connections += 1;
        self.predict(now, self.connections)
    }

    /// What the ISN *will be* for the `nth` connection at time `now` —
    /// the attacker's computation is identical to the victim's.
    pub fn predict(&self, now: SimTime, nth_connection: u32) -> u32 {
        let ticks = (now.0 / 1_000_000) as u32;
        self.base
            .wrapping_add(ticks.wrapping_mul(128))
            .wrapping_add(nth_connection.wrapping_mul(64))
    }

    /// Number of connections issued so far.
    pub fn connections(&self) -> u32 {
        self.connections
    }
}

/// A stream segment. Wire format: tag byte, then fixed fields big-endian,
/// then payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Segment {
    /// Connection request with the client's ISN.
    Syn {
        /// Client ISN.
        isn: u32,
    },
    /// Server's response: its own ISN, acknowledging the client's.
    SynAck {
        /// Server ISN.
        isn: u32,
        /// Client ISN + 1.
        ack: u32,
    },
    /// Handshake completion.
    Ack {
        /// Client sequence (client ISN + 1).
        seq: u32,
        /// Server ISN + 1.
        ack: u32,
    },
    /// Application data.
    Data {
        /// Sequence number of the first payload byte.
        seq: u32,
        /// Acknowledgement of the server's stream.
        ack: u32,
        /// Application bytes.
        payload: Vec<u8>,
    },
    /// Reset.
    Rst,
}

impl Segment {
    /// Serializes the segment.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Segment::Syn { isn } => {
                let mut v = vec![1u8];
                v.extend_from_slice(&isn.to_be_bytes());
                v
            }
            Segment::SynAck { isn, ack } => {
                let mut v = vec![2u8];
                v.extend_from_slice(&isn.to_be_bytes());
                v.extend_from_slice(&ack.to_be_bytes());
                v
            }
            Segment::Ack { seq, ack } => {
                let mut v = vec![3u8];
                v.extend_from_slice(&seq.to_be_bytes());
                v.extend_from_slice(&ack.to_be_bytes());
                v
            }
            Segment::Data { seq, ack, payload } => {
                let mut v = vec![4u8];
                v.extend_from_slice(&seq.to_be_bytes());
                v.extend_from_slice(&ack.to_be_bytes());
                v.extend_from_slice(payload);
                v
            }
            Segment::Rst => vec![5u8],
        }
    }

    /// Parses a segment; `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<Segment> {
        let be32 = |s: &[u8]| -> Option<u32> { Some(u32::from_be_bytes(s.try_into().ok()?)) };
        match data.first()? {
            1 => Some(Segment::Syn { isn: be32(data.get(1..5)?)? }),
            2 => Some(Segment::SynAck { isn: be32(data.get(1..5)?)?, ack: be32(data.get(5..9)?)? }),
            3 => Some(Segment::Ack { seq: be32(data.get(1..5)?)?, ack: be32(data.get(5..9)?)? }),
            4 => Some(Segment::Data {
                seq: be32(data.get(1..5)?)?,
                ack: be32(data.get(5..9)?)?,
                payload: data.get(9..)?.to_vec(),
            }),
            5 => Some(Segment::Rst),
            _ => None,
        }
    }
}

/// Per-connection server state.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ConnState {
    SynReceived {
        server_isn: u32,
        client_isn: u32,
    },
    Established {
        server_isn: u32,
        client_next_seq: u32,
    },
}

/// A listening stream endpoint that trusts data by *source address* once
/// the three-way handshake completes — the pre-Kerberos "rsh" trust
/// model the paper's replay discussion starts from.
pub struct StreamListener {
    isn_gen: IsnGenerator,
    conns: BTreeMap<Endpoint, ConnState>,
    /// Data accepted on established connections: (peer, bytes). For the
    /// blind-spoof experiment this is the smoking gun — data recorded
    /// here under a trusted peer's address means the attack landed.
    pub delivered: Vec<(Endpoint, Vec<u8>)>,
}

impl StreamListener {
    /// A listener whose ISN counter starts at `isn_base`.
    pub fn new(isn_base: u32) -> Self {
        StreamListener { isn_gen: IsnGenerator::new(isn_base), conns: BTreeMap::new(), delivered: Vec::new() }
    }
}

impl Service for StreamListener {
    fn handle(&mut self, ctx: &mut ServiceCtx, req: &[u8], from: Endpoint) -> Option<Vec<u8>> {
        let seg = Segment::decode(req)?;
        match seg {
            Segment::Syn { isn } => {
                let server_isn = self.isn_gen.next(ctx.local_time);
                self.conns.insert(from, ConnState::SynReceived { server_isn, client_isn: isn });
                Some(Segment::SynAck { isn: server_isn, ack: isn.wrapping_add(1) }.encode())
            }
            Segment::Ack { seq, ack } => {
                match self.conns.get(&from) {
                    Some(&ConnState::SynReceived { server_isn, client_isn })
                        if ack == server_isn.wrapping_add(1) && seq == client_isn.wrapping_add(1) =>
                    {
                        self.conns.insert(
                            from,
                            ConnState::Established { server_isn, client_next_seq: seq },
                        );
                        None
                    }
                    _ => Some(Segment::Rst.encode()),
                }
            }
            Segment::Data { seq, ack, payload } => match self.conns.get(&from) {
                Some(&ConnState::Established { server_isn, client_next_seq })
                    if seq == client_next_seq && ack == server_isn.wrapping_add(1) =>
                {
                    let next = client_next_seq.wrapping_add(payload.len() as u32);
                    self.conns.insert(from, ConnState::Established { server_isn, client_next_seq: next });
                    self.delivered.push((from, payload));
                    Some(Segment::Ack { seq: 0, ack: next }.encode())
                }
                _ => Some(Segment::Rst.encode()),
            },
            Segment::SynAck { .. } | Segment::Rst => None,
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_codec_roundtrip() {
        for seg in [
            Segment::Syn { isn: 42 },
            Segment::SynAck { isn: 7, ack: 43 },
            Segment::Ack { seq: 43, ack: 8 },
            Segment::Data { seq: 43, ack: 8, payload: b"rm -rf /".to_vec() },
            Segment::Rst,
        ] {
            assert_eq!(Segment::decode(&seg.encode()), Some(seg));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Segment::decode(&[]), None);
        assert_eq!(Segment::decode(&[9, 9, 9]), None);
        assert_eq!(Segment::decode(&[1, 0]), None); // truncated SYN
    }

    #[test]
    fn isn_is_predictable() {
        let mut victim = IsnGenerator::new(1000);
        let t = SimTime(5_000_000);
        let observed = victim.next(t); // Attacker learns this (conn #1).
        // Attacker predicts connection #2 at t+1s without further
        // observation.
        let predictor = IsnGenerator::new(1000);
        let t2 = SimTime(6_000_000);
        let predicted = predictor.predict(t2, 2);
        assert_eq!(victim.next(t2), predicted);
        assert_eq!(predicted, observed.wrapping_add(128 + 64));
    }

    #[test]
    fn handshake_and_data() {
        let mut l = StreamListener::new(77);
        let mut ctx =
            ServiceCtx::detached(SimTime(1_000_000), "srv", crate::net::Addr::new(1, 1, 1, 1), false);
        let peer = Endpoint::new(crate::net::Addr::new(2, 2, 2, 2), 1024);

        let synack = l.handle(&mut ctx, &Segment::Syn { isn: 500 }.encode(), peer).unwrap();
        let (sisn, ack) = match Segment::decode(&synack).unwrap() {
            Segment::SynAck { isn, ack } => (isn, ack),
            other => panic!("expected SynAck, got {other:?}"),
        };
        assert_eq!(ack, 501);

        assert!(l.handle(&mut ctx, &Segment::Ack { seq: 501, ack: sisn + 1 }.encode(), peer).is_none());
        let reply = l
            .handle(&mut ctx, &Segment::Data { seq: 501, ack: sisn + 1, payload: b"ls".to_vec() }.encode(), peer)
            .unwrap();
        assert!(matches!(Segment::decode(&reply), Some(Segment::Ack { .. })));
        assert_eq!(l.delivered, vec![(peer, b"ls".to_vec())]);
    }

    #[test]
    fn wrong_ack_resets() {
        let mut l = StreamListener::new(77);
        let mut ctx =
            ServiceCtx::detached(SimTime(0), "srv", crate::net::Addr::new(1, 1, 1, 1), false);
        let peer = Endpoint::new(crate::net::Addr::new(2, 2, 2, 2), 1024);
        l.handle(&mut ctx, &Segment::Syn { isn: 500 }.encode(), peer);
        // A wrong guess at the server ISN gets a reset — the blind
        // spoofer only has one shot per handshake.
        let reply = l.handle(&mut ctx, &Segment::Ack { seq: 501, ack: 12345 }.encode(), peer).unwrap();
        assert_eq!(Segment::decode(&reply), Some(Segment::Rst));
        assert!(l.delivered.is_empty());
    }

    #[test]
    fn out_of_order_data_rejected() {
        let mut l = StreamListener::new(1);
        let mut ctx =
            ServiceCtx::detached(SimTime(0), "srv", crate::net::Addr::new(1, 1, 1, 1), false);
        let peer = Endpoint::new(crate::net::Addr::new(2, 2, 2, 2), 9);
        let synack = l.handle(&mut ctx, &Segment::Syn { isn: 0 }.encode(), peer).unwrap();
        let sisn = match Segment::decode(&synack).unwrap() {
            Segment::SynAck { isn, .. } => isn,
            _ => unreachable!(),
        };
        l.handle(&mut ctx, &Segment::Ack { seq: 1, ack: sisn + 1 }.encode(), peer);
        let reply = l
            .handle(&mut ctx, &Segment::Data { seq: 999, ack: sisn + 1, payload: b"x".to_vec() }.encode(), peer)
            .unwrap();
        assert_eq!(Segment::decode(&reply), Some(Segment::Rst));
    }
}
