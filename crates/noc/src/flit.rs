//! Flits and packets.
//!
//! A packet is the unit the paper's test planner reasons about (one scan
//! pattern or response per packet); a flit is the unit the wormhole network
//! transports. The first flit of every packet is the *header* carrying the
//! destination, mirroring the Hermes packet format (header flit, size flit,
//! payload); we fold the size into the header since the simulator is not
//! bit-accurate about framing.

use std::fmt;

use crate::topology::NodeId;

/// Monotonically increasing identifier assigned to packets at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub(crate) u64);

impl PacketId {
    /// Raw numeric id.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Intermediate payload flit.
    Body,
    /// Last flit; releases the wormhole path as it drains.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// `true` for `Head` and `HeadTail`.
    #[must_use]
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for `Tail` and `HeadTail`.
    #[must_use]
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// Destination router (replicated from the header so the simulator does
    /// not need per-router packet state).
    pub dest: NodeId,
    /// Sequence number within the packet (0 = head).
    pub seq: u32,
    /// Opaque payload bits; test replay stores pattern words here.
    pub data: u64,
}

/// A packet to be injected into the network.
///
/// ```
/// use noctest_noc::{Packet, NodeId};
/// let p = Packet::new(NodeId::new(0), NodeId::new(5), 4).with_tag(7);
/// assert_eq!(p.payload_flits(), 4);
/// assert_eq!(p.total_flits(), 5); // + header
/// assert_eq!(p.tag(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    src: NodeId,
    dest: NodeId,
    payload_flits: u32,
    payload: Vec<u64>,
    tag: u64,
}

impl Packet {
    /// Creates a packet of `payload_flits` payload flits (a header flit is
    /// added automatically) from `src` to `dest`. Packets with zero payload
    /// flits are legal on the wire (header-only control packets) but the
    /// test traffic never produces them.
    #[must_use]
    pub fn new(src: NodeId, dest: NodeId, payload_flits: u32) -> Self {
        Packet {
            src,
            dest,
            payload_flits,
            payload: Vec::new(),
            tag: 0,
        }
    }

    /// Creates a packet whose payload flits carry the given data words.
    #[must_use]
    pub fn with_payload(src: NodeId, dest: NodeId, payload: Vec<u64>) -> Self {
        Packet {
            src,
            dest,
            payload_flits: payload.len() as u32,
            payload,
            tag: 0,
        }
    }

    /// Attaches an opaque caller tag (e.g. "pattern 17 of core 4"),
    /// returned unchanged in [`crate::DeliveredPacket`].
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Source router.
    #[must_use]
    pub const fn src(&self) -> NodeId {
        self.src
    }

    /// Destination router.
    #[must_use]
    pub const fn dest(&self) -> NodeId {
        self.dest
    }

    /// Number of payload flits (header excluded).
    #[must_use]
    pub const fn payload_flits(&self) -> u32 {
        self.payload_flits
    }

    /// Total flits on the wire, header included.
    #[must_use]
    pub const fn total_flits(&self) -> u32 {
        self.payload_flits + 1
    }

    /// Caller tag attached with [`Packet::with_tag`].
    #[must_use]
    pub const fn tag(&self) -> u64 {
        self.tag
    }

    /// Payload words, if constructed via [`Packet::with_payload`].
    #[must_use]
    pub fn payload(&self) -> &[u64] {
        &self.payload
    }

    /// Expands the packet into its flit sequence.
    pub(crate) fn flits(&self, id: PacketId) -> Vec<Flit> {
        let mut out = Vec::new();
        self.flits_into(id, &mut out);
        out
    }

    /// Appends the packet's flit sequence to `out` without an intermediate
    /// allocation — the event engine fills its recycled event-arena slots
    /// through this, and [`Packet::flits`] (the reference simulator's
    /// expansion) delegates here so both simulators expand packets
    /// identically.
    pub(crate) fn flits_into(&self, id: PacketId, out: &mut Vec<Flit>) {
        let total = self.total_flits();
        out.reserve(total as usize);
        for seq in 0..total {
            let kind = if total == 1 {
                FlitKind::HeadTail
            } else if seq == 0 {
                FlitKind::Head
            } else if seq == total - 1 {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            let data = if seq == 0 {
                u64::from(u32::from(self.dest))
            } else {
                self.payload
                    .get(seq as usize - 1)
                    .copied()
                    .unwrap_or(u64::from(seq))
            };
            out.push(Flit {
                packet: id,
                kind,
                dest: self.dest,
                seq,
                data,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_expansion_marks_head_and_tail() {
        let p = Packet::new(NodeId::new(0), NodeId::new(3), 3);
        let flits = p.flits(PacketId(9));
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().all(|f| f.packet == PacketId(9)));
        assert!(flits.iter().all(|f| f.dest == NodeId::new(3)));
    }

    #[test]
    fn header_only_packet_is_headtail() {
        let p = Packet::new(NodeId::new(0), NodeId::new(1), 0);
        let flits = p.flits(PacketId(0));
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn payload_words_ride_in_body_flits() {
        let p = Packet::with_payload(NodeId::new(0), NodeId::new(1), vec![0xAA, 0xBB]);
        let flits = p.flits(PacketId(1));
        assert_eq!(flits[1].data, 0xAA);
        assert_eq!(flits[2].data, 0xBB);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let p = Packet::new(NodeId::new(2), NodeId::new(7), 5);
        let flits = p.flits(PacketId(4));
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq as usize, i);
        }
    }

    #[test]
    fn tag_roundtrip() {
        let p = Packet::new(NodeId::new(0), NodeId::new(1), 1).with_tag(42);
        assert_eq!(p.tag(), 42);
    }
}
