//! Wire-protocol robustness suite (wired into `ci.sh`).
//!
//! Two properties, proptest-pinned:
//!
//! 1. **Round-trip fidelity** — any request/response frame survives
//!    encode → decode unchanged, headers (deadline budget, tenant, top_k)
//!    included.
//! 2. **Hostile-input totality** — the decoder never panics. Truncations,
//!    oversized prefixes, and arbitrary garbage all land in a typed
//!    [`WireError`]; nothing reaches an `unwrap` or an allocation sized by
//!    an attacker-controlled count.

use std::io::{BufReader, Read, Write};

use proptest::prelude::*;
use zoomer_graph::{Query, Retrieval};
use zoomer_serving::wire::{
    decode_request, decode_response, encode_error, encode_request, encode_response, read_frame,
    write_frame,
};
use zoomer_serving::{RequestFrame, ResponseFrame, ResponseRow, ResponseStatus, WireError};

fn arb_query() -> impl Strategy<Value = Query> {
    (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX)
        .prop_map(|(u, q, t, k)| Query::new(u, q).with_tenant(t).with_top_k(k))
}

fn arb_request() -> impl Strategy<Value = RequestFrame> {
    (0u64..u64::MAX, prop::collection::vec(arb_query(), 0..20))
        .prop_map(|(deadline_us, queries)| RequestFrame { deadline_us, queries })
}

fn arb_row() -> impl Strategy<Value = ResponseRow> {
    (prop::bool::ANY, prop::bool::ANY, prop::collection::vec(0u32..=u32::MAX, 0..30)).prop_map(
        |(shed, degraded, items)| ResponseRow {
            status: if shed { ResponseStatus::Shed } else { ResponseStatus::Ok },
            retrieval: Retrieval { items, degraded },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_frames_round_trip(frame in arb_request()) {
        let payload = encode_request(&frame);
        let back = decode_request(&payload).expect("decode own encoding");
        prop_assert_eq!(frame, back);
    }

    #[test]
    fn response_frames_round_trip(rows in prop::collection::vec(arb_row(), 0..12)) {
        let frame = ResponseFrame { rows };
        let payload = encode_response(&frame);
        let back = decode_response(&payload).expect("decode own encoding");
        prop_assert_eq!(frame, back);
    }

    /// Chopping a valid request anywhere strictly inside it is always a
    /// typed decode error — never a panic, never a silent partial decode.
    #[test]
    fn truncated_requests_are_typed_errors(
        frame in arb_request(),
        cut in 0usize..4096,
    ) {
        let payload = encode_request(&frame);
        let cut = cut % payload.len();
        prop_assert!(decode_request(&payload[..cut]).is_err());
    }

    /// Arbitrary garbage never panics either decoder; it decodes only if it
    /// happens to be a well-formed frame (and then re-encodes canonically).
    #[test]
    fn garbage_never_panics_the_decoders(bytes in prop::collection::vec(0u8..=u8::MAX, 0..256)) {
        if let Ok(req) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&req), bytes.clone());
        }
        let _ = decode_response(&bytes);
    }

    /// Appending bytes after a valid frame is rejected as trailing garbage.
    #[test]
    fn trailing_bytes_are_rejected(frame in arb_request(), extra in 1usize..16) {
        let mut payload = encode_request(&frame);
        payload.extend(vec![0xA5u8; extra]);
        prop_assert_eq!(
            decode_request(&payload),
            Err(WireError::TrailingBytes { extra })
        );
    }

    /// Frame transport round-trips through any in-memory stream, and a
    /// clean EOF at a frame boundary reads as `None`, not an error.
    #[test]
    fn framing_round_trips_and_eof_is_clean(frame in arb_request()) {
        let payload = encode_request(&frame);
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        write_frame(&mut buf, &payload).expect("write");
        let mut r = buf.as_slice();
        for _ in 0..2 {
            let got = read_frame(&mut r).expect("read").expect("a frame");
            prop_assert_eq!(got.as_slice(), payload.as_slice());
        }
        prop_assert!(read_frame(&mut r).expect("clean eof").is_none());
    }
}

/// An error frame decodes as `WireError::Remote` carrying the message.
#[test]
fn error_frames_surface_as_remote() {
    let payload = encode_error("shard 3 is on fire");
    match decode_response(&payload) {
        Err(WireError::Remote(msg)) => assert_eq!(msg, "shard 3 is on fire"),
        other => panic!("expected Remote, got {other:?}"),
    }
}

/// A length prefix past `MAX_FRAME_LEN` is rejected before any allocation.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(&(u32::MAX).to_le_bytes());
    buf.extend_from_slice(&[0u8; 8]);
    match read_frame(&mut buf.as_slice()) {
        Err(WireError::Oversized { len }) => assert_eq!(len, u32::MAX as usize),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// A request header lying about its query count (count × stride larger
/// than the payload) is rejected up front instead of sizing an allocation.
#[test]
fn lying_query_count_is_rejected() {
    let mut payload = encode_request(&RequestFrame { deadline_us: 0, queries: vec![] });
    // Patch the count field (last 4 bytes of the empty request) to huge.
    let n = payload.len();
    payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(decode_request(&payload), Err(WireError::Truncated { .. })));
}

/// A writer that records every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `write_frame` hands the length prefix and the payload to the writer in
/// one `write` call (on a `TCP_NODELAY` socket: one segment per frame).
#[test]
fn write_frame_issues_one_write_per_frame() {
    let mut w = CountingWriter::default();
    let request = encode_request(&RequestFrame {
        deadline_us: 25_000,
        queries: vec![Query::new(1, 2), Query::new(3, 4).with_top_k(7)],
    });
    let response = encode_response(&ResponseFrame {
        rows: vec![ResponseRow {
            status: ResponseStatus::Ok,
            retrieval: Retrieval::new((0..100).collect()),
        }],
    });
    for (i, payload) in [&request, &response, &Vec::new()].into_iter().enumerate() {
        let before = w.bytes.len();
        write_frame(&mut w, payload).expect("write");
        assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
        assert_eq!(w.bytes.len() - before, 4 + payload.len());
    }
    let mut r = w.bytes.as_slice();
    assert_eq!(read_frame(&mut r).expect("read"), Some(request));
    assert_eq!(read_frame(&mut r).expect("read"), Some(response));
    assert_eq!(read_frame(&mut r).expect("read"), Some(Vec::new()));
}

/// A reader that counts the `read` calls reaching it.
struct CountingReader<'a> {
    inner: &'a [u8],
    reads: usize,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        self.inner.read(buf)
    }
}

/// Through a `BufReader`, two back-to-back frames decode from the one
/// buffer fill that holds them both, and the stream then ends cleanly.
#[test]
fn buffered_read_decodes_back_to_back_frames_from_one_fill() {
    let first = encode_request(&RequestFrame { deadline_us: 0, queries: vec![Query::new(5, 6)] });
    let second = encode_error("second frame");
    let mut wire = Vec::new();
    write_frame(&mut wire, &first).expect("write first");
    write_frame(&mut wire, &second).expect("write second");

    let mut reader = BufReader::new(CountingReader { inner: &wire, reads: 0 });
    assert_eq!(read_frame(&mut reader).expect("first"), Some(first));
    assert_eq!(read_frame(&mut reader).expect("second"), Some(second));
    assert_eq!(reader.get_ref().reads, 1, "both frames must come from one fill");
    assert_eq!(read_frame(&mut reader).expect("clean eof"), None);
    assert_eq!(reader.get_ref().reads, 2, "EOF costs exactly one more read");
}
