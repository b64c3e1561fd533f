//! Zero-copy wire codec for coalesced datagrams.
//!
//! A [`WireDatagram`] is the unit the host puts on the network: every
//! frame bound for one peer at one flush boundary, encoded as a
//! length-prefixed frame sequence. Encoding is **scatter-gather**: header and per-frame
//! metadata go into small owned segments, while each `Data` payload is
//! appended as its own refcounted [`Bytes`] segment — a payload is never
//! copied on the way out. Decoding slices payloads back out of the
//! segments, so the receive path is copy-free as well.
//!
//! Wire layout (big-endian):
//!
//! ```text
//! datagram  := id:u64  count:u32  frame*  hints?
//! frame     := 0x00 ack:u64                              (Ack)
//!            | 0x01 seq:u64 ack:u64 len:u32 payload      (Data)
//! hints     := hint_count:u32  (item:u32 surplus:u64)*
//! ```
//!
//! The high bit of `count` flags a trailing **availability-hint**
//! section (advertised-surplus gossip piggybacked by the adaptive
//! placement layer). A datagram with no hints encodes byte-for-byte as
//! it did before the section existed — the flag bit is simply never
//! set — which is what keeps the pre-hint golden traces valid.

use crate::channel::Seq;
use crate::frame::Frame;
use bytes::{BufMut, Bytes, BytesMut};

/// Frame tag byte for a standalone ack.
const TAG_ACK: u8 = 0x00;
/// Frame tag byte for a data frame.
const TAG_DATA: u8 = 0x01;

/// High bit of the header `count` field: a hint section trails the
/// frames.
const HINT_FLAG: u32 = 1 << 31;

/// Encoded size of the datagram header (`id` + `count`).
pub const DATAGRAM_HEADER_LEN: usize = 8 + 4;
/// Encoded size of one availability-hint entry (`item` + `surplus`).
pub const HINT_ENTRY_LEN: usize = 4 + 8;
/// Encoded size of a standalone ack frame (tag + ack).
pub const ACK_FRAME_LEN: usize = 1 + 8;
/// Encoded size of a data frame's metadata (tag + seq + ack + len).
pub const DATA_FRAME_META_LEN: usize = 1 + 8 + 8 + 4;

/// Encoded size of one frame on the wire.
pub fn frame_wire_len(frame: &Frame) -> usize {
    match frame {
        Frame::Ack { .. } => ACK_FRAME_LEN,
        Frame::Data { payload, .. } => DATA_FRAME_META_LEN + payload.len(),
    }
}

/// A decoded datagram: the per-(site, peer) id plus its frames in
/// original (per-channel FIFO) order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Per-(sender, peer) datagram sequence number (1-based).
    pub id: u64,
    /// The coalesced frames, in the order they were queued.
    pub frames: Vec<Frame>,
    /// Piggybacked availability hints `(item, advertised surplus)` —
    /// empty unless the sender's adaptive placement attached gossip.
    pub hints: Vec<(u32, u64)>,
}

/// The encoded form of one datagram: an ordered list of byte segments
/// that concatenate to the wire image. Cloning is cheap (refcount bumps)
/// — the simulated network clones datagrams for duplication faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDatagram {
    /// Wire segments, in order. Metadata segments are owned; payload
    /// segments alias the sender's `Bytes` buffers.
    segs: Vec<Bytes>,
    /// Number of frames encoded (cached from the header).
    frames: u32,
    /// Total wire length in bytes (cached: sum of segment lengths).
    wire_len: usize,
}

impl WireDatagram {
    /// Encode `frames` as datagram `id`. Payload bytes are shared, not
    /// copied: each `Data` payload becomes its own segment.
    pub fn encode(id: u64, frames: &[Frame]) -> WireDatagram {
        Self::encode_with_hints(id, frames, &[])
    }

    /// Encode `frames` as datagram `id` with a trailing availability-hint
    /// section. With `hints` empty this is byte-identical to
    /// [`encode`](Self::encode) — the flag bit is only set when there is
    /// something to carry.
    pub fn encode_with_hints(id: u64, frames: &[Frame], hints: &[(u32, u64)]) -> WireDatagram {
        debug_assert!(frames.len() < HINT_FLAG as usize, "frame count overflow");
        let mut segs = Vec::with_capacity(1 + frames.len());
        let mut meta =
            BytesMut::with_capacity(DATAGRAM_HEADER_LEN + frames.len() * DATA_FRAME_META_LEN);
        meta.put_u64(id);
        let mut count = frames.len() as u32;
        if !hints.is_empty() {
            count |= HINT_FLAG;
        }
        meta.put_u32(count);
        let mut wire_len = 0usize;
        for f in frames {
            wire_len += frame_wire_len(f);
            match f {
                Frame::Ack { ack } => {
                    meta.put_u8(TAG_ACK);
                    meta.put_u64(*ack);
                }
                Frame::Data { seq, ack, payload } => {
                    meta.put_u8(TAG_DATA);
                    meta.put_u64(*seq);
                    meta.put_u64(*ack);
                    meta.put_u32(payload.len() as u32);
                    // Flush the metadata run so the payload lands as its
                    // own segment (shared, never copied).
                    segs.push(std::mem::take(&mut meta).freeze());
                    segs.push(payload.clone());
                }
            }
        }
        if !hints.is_empty() {
            meta.put_u32(hints.len() as u32);
            for &(item, surplus) in hints {
                meta.put_u32(item);
                meta.put_u64(surplus);
            }
            wire_len += 4 + hints.len() * HINT_ENTRY_LEN;
        }
        if !meta.is_empty() {
            segs.push(meta.freeze());
        }
        WireDatagram {
            segs,
            frames: frames.len() as u32,
            wire_len: wire_len + DATAGRAM_HEADER_LEN,
        }
    }

    /// Number of frames carried.
    pub fn frame_count(&self) -> u32 {
        self.frames
    }

    /// Total encoded size in bytes (header + all frames).
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Decode back into frames. Payloads are zero-copy slices of the
    /// wire segments. Panics on a malformed image — datagrams only ever
    /// come from [`encode`](Self::encode), so corruption is a bug in the
    /// transport, not an input to be tolerated.
    pub fn decode(&self) -> Datagram {
        let mut r = SegReader::new(&self.segs);
        let id = r.u64();
        let raw_count = r.u32();
        let count = raw_count & !HINT_FLAG;
        let mut frames = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match r.u8() {
                TAG_ACK => frames.push(Frame::Ack {
                    ack: r.u64() as Seq,
                }),
                TAG_DATA => {
                    let seq = r.u64() as Seq;
                    let ack = r.u64() as Seq;
                    let len = r.u32() as usize;
                    frames.push(Frame::Data {
                        seq,
                        ack,
                        payload: r.bytes(len),
                    });
                }
                tag => panic!("malformed datagram: unknown frame tag {tag:#x}"),
            }
        }
        let mut hints = Vec::new();
        if raw_count & HINT_FLAG != 0 {
            let n = r.u32() as usize;
            hints.reserve(n);
            for _ in 0..n {
                let item = r.u32();
                let surplus = r.u64();
                hints.push((item, surplus));
            }
        }
        assert_eq!(r.remaining(), 0, "malformed datagram: trailing bytes");
        Datagram { id, frames, hints }
    }

    /// The concatenated wire image (test/debug helper; copies).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.wire_len);
        for s in &self.segs {
            v.extend_from_slice(s);
        }
        v
    }
}

/// Cursor over an ordered list of byte segments, treating them as one
/// contiguous stream. Integer reads that straddle a segment boundary are
/// copied through a small stack buffer; `bytes` reads that fall entirely
/// inside one segment (the only case the encoder produces for payloads)
/// are zero-copy slices.
struct SegReader<'a> {
    segs: &'a [Bytes],
    /// Index of the current segment.
    seg: usize,
    /// Offset into the current segment.
    off: usize,
}

impl<'a> SegReader<'a> {
    fn new(segs: &'a [Bytes]) -> Self {
        SegReader {
            segs,
            seg: 0,
            off: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.segs[self.seg..].iter().map(|s| s.len()).sum::<usize>() - self.off
    }

    /// Copy exactly `buf.len()` bytes into `buf`, advancing the cursor.
    fn fill(&mut self, buf: &mut [u8]) {
        let mut filled = 0;
        while filled < buf.len() {
            let seg = self
                .segs
                .get(self.seg)
                .expect("malformed datagram: truncated");
            let avail = seg.len() - self.off;
            if avail == 0 {
                self.seg += 1;
                self.off = 0;
                continue;
            }
            let n = avail.min(buf.len() - filled);
            buf[filled..filled + n].copy_from_slice(&seg[self.off..self.off + n]);
            self.off += n;
            filled += n;
        }
        self.skip_empty();
    }

    /// Advance past exhausted segments so `bytes` sees a fresh one.
    fn skip_empty(&mut self) {
        while self.seg < self.segs.len() && self.off == self.segs[self.seg].len() {
            self.seg += 1;
            self.off = 0;
        }
    }

    fn u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.fill(&mut b);
        b[0]
    }

    fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_be_bytes(b)
    }

    fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read `n` bytes as a `Bytes`. Zero-copy when the run lies within
    /// one segment (always true for encoder-produced payloads).
    fn bytes(&mut self, n: usize) -> Bytes {
        self.skip_empty();
        if n == 0 {
            return Bytes::new();
        }
        let seg = self
            .segs
            .get(self.seg)
            .expect("malformed datagram: truncated payload");
        if seg.len() - self.off >= n {
            let out = seg.slice(self.off..self.off + n);
            self.off += n;
            self.skip_empty();
            return out;
        }
        // Straddles segments (foreign encoder); fall back to a copy.
        let mut v = vec![0u8; n];
        self.fill(&mut v);
        Bytes::from(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: Seq, ack: Seq, payload: &[u8]) -> Frame {
        Frame::Data {
            seq,
            ack,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn roundtrip_mixed_frames() {
        let frames = vec![
            Frame::Ack { ack: 7 },
            data(3, 7, b"hello"),
            data(4, 7, b""),
            Frame::Ack { ack: 9 },
            data(5, 9, &[0xFF; 300]),
        ];
        let wire = WireDatagram::encode(42, &frames);
        assert_eq!(wire.frame_count(), 5);
        let d = wire.decode();
        assert_eq!(d.id, 42);
        assert_eq!(d.frames, frames);
    }

    #[test]
    fn empty_datagram_roundtrips() {
        let wire = WireDatagram::encode(1, &[]);
        assert_eq!(wire.frame_count(), 0);
        assert_eq!(wire.wire_len(), DATAGRAM_HEADER_LEN);
        let d = wire.decode();
        assert_eq!(d.id, 1);
        assert!(d.frames.is_empty());
    }

    #[test]
    fn wire_len_matches_concatenated_image() {
        let frames = vec![Frame::Ack { ack: 1 }, data(1, 0, b"abcde")];
        let wire = WireDatagram::encode(9, &frames);
        assert_eq!(wire.wire_len(), wire.to_vec().len());
        assert_eq!(
            wire.wire_len(),
            DATAGRAM_HEADER_LEN + ACK_FRAME_LEN + DATA_FRAME_META_LEN + 5
        );
    }

    #[test]
    fn payload_decode_is_zero_copy() {
        // The decoded payload must alias the original buffer: equal
        // content *and* the datagram's segment list holds the payload as
        // its own segment (no metadata mixed in).
        let payload = Bytes::from(vec![7u8; 64]);
        let frames = vec![Frame::Data {
            seq: 1,
            ack: 0,
            payload: payload.clone(),
        }];
        let wire = WireDatagram::encode(1, &frames);
        assert!(
            wire.segs.iter().any(|s| s == &payload),
            "payload must be its own shared segment"
        );
        let d = wire.decode();
        match &d.frames[0] {
            Frame::Data { payload: p, .. } => assert_eq!(p, &payload),
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn clone_shares_segments() {
        let wire = WireDatagram::encode(3, &[data(1, 0, b"xyz")]);
        let copy = wire.clone();
        assert_eq!(copy, wire);
        assert_eq!(copy.decode(), wire.decode());
    }

    #[test]
    fn frame_wire_len_covers_both_variants() {
        assert_eq!(frame_wire_len(&Frame::Ack { ack: 1 }), 9);
        assert_eq!(frame_wire_len(&data(1, 0, b"1234")), 21 + 4);
    }

    #[test]
    fn hints_roundtrip_and_cost_their_section() {
        let frames = vec![Frame::Ack { ack: 2 }, data(3, 2, b"pay")];
        let hints = vec![(0u32, 40u64), (7, 12)];
        let wire = WireDatagram::encode_with_hints(5, &frames, &hints);
        assert_eq!(wire.frame_count(), 2, "flag bit must not leak into count");
        assert_eq!(wire.wire_len(), wire.to_vec().len());
        assert_eq!(
            wire.wire_len(),
            DATAGRAM_HEADER_LEN + ACK_FRAME_LEN + DATA_FRAME_META_LEN + 3 + 4 + 2 * HINT_ENTRY_LEN
        );
        let d = wire.decode();
        assert_eq!(d.id, 5);
        assert_eq!(d.frames, frames);
        assert_eq!(d.hints, hints);
    }

    #[test]
    fn zero_hints_encode_byte_identically_to_plain_encode() {
        let frames = vec![data(1, 0, b"abc"), Frame::Ack { ack: 4 }];
        let plain = WireDatagram::encode(9, &frames);
        let hinted = WireDatagram::encode_with_hints(9, &frames, &[]);
        assert_eq!(plain.to_vec(), hinted.to_vec());
        assert!(plain.decode().hints.is_empty());
    }

    #[test]
    fn hint_only_datagram_roundtrips() {
        let wire = WireDatagram::encode_with_hints(2, &[], &[(1, 99)]);
        assert_eq!(wire.frame_count(), 0);
        let d = wire.decode();
        assert!(d.frames.is_empty());
        assert_eq!(d.hints, vec![(1, 99)]);
    }
}
