//! Configuration bitstream packing.
//!
//! A compiled network ultimately becomes a configuration of the fabric: the
//! ReRAM levels of every PE crossbar, the LUT contents of every CLB, and the
//! on/off state of every routing switch. This module packs those sections
//! into a single binary image and reads them back, so a compiled
//! configuration can be persisted or shipped to (simulated) hardware.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// The kinds of configuration sections in a bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SectionKind {
    /// ReRAM levels of one PE crossbar.
    PeWeights,
    /// LUT contents of one CLB.
    ClbLuts,
    /// Switch-box and connection-box switch states of one tile.
    RoutingSwitches,
    /// SMB port and addressing configuration.
    SmbConfig,
}

impl SectionKind {
    fn tag(&self) -> u8 {
        match self {
            SectionKind::PeWeights => 1,
            SectionKind::ClbLuts => 2,
            SectionKind::RoutingSwitches => 3,
            SectionKind::SmbConfig => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SectionKind::PeWeights),
            2 => Some(SectionKind::ClbLuts),
            3 => Some(SectionKind::RoutingSwitches),
            4 => Some(SectionKind::SmbConfig),
            _ => None,
        }
    }
}

/// One configuration section: the target slot and its payload bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// Which kind of resource this configures.
    pub kind: SectionKind,
    /// Linear slot index on the fabric.
    pub slot: u32,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Builder and parser for fabric configuration bitstreams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitstream {
    sections: Vec<Section>,
}

/// Magic number identifying an FPSA bitstream.
const MAGIC: u32 = 0xF95A_0001;

impl Bitstream {
    /// Create an empty bitstream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a configuration section.
    pub fn push(&mut self, kind: SectionKind, slot: u32, payload: Vec<u8>) {
        self.sections.push(Section {
            kind,
            slot,
            payload,
        });
    }

    /// The sections in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Total configuration size in bytes (payloads only).
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.payload.len()).sum()
    }

    /// Serialize to the binary image format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.payload_bytes());
        buf.put_u32(MAGIC);
        buf.put_u32(self.sections.len() as u32);
        for s in &self.sections {
            buf.put_u8(s.kind.tag());
            buf.put_u32(s.slot);
            buf.put_u32(s.payload.len() as u32);
            buf.put_slice(&s.payload);
        }
        buf.freeze()
    }

    /// Parse a binary image back into sections.
    ///
    /// Returns `None` if the image is truncated or has an unknown magic or
    /// section tag.
    pub fn from_bytes(mut data: Bytes) -> Option<Self> {
        if data.remaining() < 8 || data.get_u32() != MAGIC {
            return None;
        }
        let count = data.get_u32() as usize;
        // Each section takes at least its 9-byte header, so a count the
        // image cannot hold never reaches the allocator.
        let mut sections = Vec::with_capacity(count.min(data.remaining() / 9));
        for _ in 0..count {
            if data.remaining() < 9 {
                return None;
            }
            let kind = SectionKind::from_tag(data.get_u8())?;
            let slot = data.get_u32();
            let len = data.get_u32() as usize;
            if data.remaining() < len {
                return None;
            }
            let payload = data.copy_to_bytes(len).to_vec();
            sections.push(Section {
                kind,
                slot,
                payload,
            });
        }
        Some(Bitstream { sections })
    }

    /// Pack a slice of 4-bit ReRAM levels (two per byte) into a PE weight
    /// section payload.
    pub fn pack_levels(levels: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(levels.len().div_ceil(2));
        for pair in levels.chunks(2) {
            let lo = pair[0] & 0x0F;
            let hi = pair.get(1).copied().unwrap_or(0) & 0x0F;
            out.push(lo | (hi << 4));
        }
        out
    }

    /// Unpack a PE weight payload back into 4-bit levels.
    pub fn unpack_levels(payload: &[u8], count: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(count);
        for byte in payload {
            out.push(byte & 0x0F);
            out.push(byte >> 4);
        }
        out.truncate(count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_sections() {
        let mut b = Bitstream::new();
        b.push(SectionKind::PeWeights, 3, vec![1, 2, 3, 4]);
        b.push(SectionKind::RoutingSwitches, 9, vec![0xFF; 10]);
        b.push(SectionKind::ClbLuts, 1, vec![]);
        let bytes = b.to_bytes();
        let parsed = Bitstream::from_bytes(bytes).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.payload_bytes(), 14);
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut b = Bitstream::new();
        b.push(SectionKind::SmbConfig, 0, vec![1]);
        let mut bytes = b.to_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert!(Bitstream::from_bytes(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut b = Bitstream::new();
        b.push(SectionKind::PeWeights, 0, vec![0; 100]);
        let bytes = b.to_bytes();
        let truncated = bytes.slice(0..bytes.len() - 10);
        assert!(Bitstream::from_bytes(truncated).is_none());
    }

    #[test]
    fn an_impossible_section_count_is_rejected_without_allocating() {
        let mut header = MAGIC.to_be_bytes().to_vec();
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Bitstream::from_bytes(Bytes::from(header)).is_none());
    }

    #[test]
    fn level_packing_round_trips() {
        let levels: Vec<u8> = (0..31).map(|i| i % 16).collect();
        let packed = Bitstream::pack_levels(&levels);
        assert_eq!(packed.len(), 16);
        let unpacked = Bitstream::unpack_levels(&packed, levels.len());
        assert_eq!(unpacked, levels);
    }

    #[test]
    fn empty_bitstream_round_trips() {
        let b = Bitstream::new();
        let parsed = Bitstream::from_bytes(b.to_bytes()).unwrap();
        assert!(parsed.sections().is_empty());
    }
}
