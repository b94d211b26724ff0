//! Length-prefixed, checksummed message frames for the TCP serving
//! layer — the `NEDSNAP1` codec primitives ([`crate::store::Writer`],
//! [`crate::store::Reader`], FNV-1a) applied to a byte stream instead of
//! a file.
//!
//! # Frame layout
//!
//! ```text
//! length   u32   little-endian byte count of the body that follows
//! body:
//!   magic    8 bytes  b"NEDWIRE1"
//!   payload  u32-length-prefixed block (the command or reply bytes)
//!   checksum u64      FNV-1a64 over magic + payload block
//! ```
//!
//! The outer length makes a frame readable off a stream without peeking;
//! the body is a standard `store` document, so magic, framing, and
//! checksum validation all reuse [`crate::store::Reader::open`]. A frame
//! that fails any of those checks surfaces a [`WireError::Codec`] carrying
//! the underlying [`CodecError`] — the serving layer treats that as a
//! poisoned stream (framing sync is gone) and drops the connection after
//! a best-effort error reply.
//!
//! Payloads are opaque bytes to this module; the serving protocol puts
//! UTF-8 command lines in them (one or more newline-separated commands
//! per frame — the *batch* protocol), but nothing here assumes text.
//! The typed layer above — [`crate::proto`]'s `Request`/`Response` enums
//! — renders to and parses from exactly those text payloads;
//! [`write_text_frame`]/[`read_text_frame`] are the seam where the two
//! meet, used by both the server's frame loop and `WireClient`.

use crate::store::{CodecError, Reader, Writer};
use std::io::{Read, Write};

/// Magic bytes opening every frame body.
pub const WIRE_MAGIC: [u8; 8] = *b"NEDWIRE1";

/// Hard ceiling on a frame body's size. Large enough for any real batch
/// of commands or replies; small enough that a corrupted or hostile
/// length prefix cannot make the receiver allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Smallest possible body: magic + empty payload block + checksum.
const MIN_FRAME_BYTES: usize = 8 + 4 + 8;

/// Errors surfaced while reading a frame off a stream.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes mid-frame EOF, which maps
    /// to [`std::io::ErrorKind::UnexpectedEof`]).
    Io(std::io::Error),
    /// The frame body failed magic, framing, or checksum validation.
    Codec(CodecError),
    /// The length prefix is outside `[MIN_FRAME_BYTES, MAX_FRAME_BYTES]`.
    BadLength(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Codec(e) => write!(f, "malformed frame: {e}"),
            WireError::BadLength(n) => write!(
                f,
                "bad frame length {n} (valid range {MIN_FRAME_BYTES}..={MAX_FRAME_BYTES})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Encodes `payload` into one complete frame (length prefix included).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    // Magic, payload length prefix, payload, checksum: the body's length
    // is known up front, so the body streams straight in behind it.
    let body_len = WIRE_MAGIC.len() + 4 + payload.len() + 8;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(
        &u32::try_from(body_len)
            .expect("frame over 4 GiB")
            .to_le_bytes(),
    );
    let mut w = Writer::new(out, &WIRE_MAGIC);
    w.put_block(payload);
    w.close().expect("an in-memory frame writer cannot fail")
}

/// Validates one frame body (everything after the length prefix) and
/// returns its payload.
pub fn decode_frame(body: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::open(body, &WIRE_MAGIC)?;
    let payload = r.block()?.to_vec();
    if r.remaining() != 0 {
        return Err(WireError::Codec(CodecError::Malformed(format!(
            "{} trailing bytes after the payload block",
            r.remaining()
        ))));
    }
    Ok(payload)
}

/// Writes one frame. The frame is assembled in memory first, so the
/// stream sees a single contiguous write.
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&encode_frame(payload))?;
    stream.flush()
}

/// Reads one frame off the stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed between messages); EOF anywhere
/// inside a frame is an [`WireError::Io`] with
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(stream: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_bytes = [0u8; 4];
    // Hand-rolled first read: a zero-byte first read is the clean-EOF
    // signal `read_exact` cannot distinguish from truncation.
    let mut got = 0usize;
    while got < len_bytes.len() {
        match stream.read(&mut len_bytes[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                )))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    decode_frame(&body).map(Some)
}

/// Writes one UTF-8 text frame — the encoding of a rendered
/// [`crate::proto`] request or reply block.
pub fn write_text_frame<W: Write>(stream: &mut W, text: &str) -> std::io::Result<()> {
    write_frame(stream, text.as_bytes())
}

/// Reads one frame and decodes its payload as UTF-8 text. `Ok(None)` on
/// clean EOF, exactly like [`read_frame`]; a non-UTF-8 payload is a
/// [`WireError::Codec`] (the typed protocol is text, so binary garbage
/// here means framing sync or the peer is broken).
pub fn read_text_frame<R: Read>(stream: &mut R) -> Result<Option<String>, WireError> {
    match read_frame(stream)? {
        None => Ok(None),
        Some(payload) => String::from_utf8(payload).map(Some).map_err(|e| {
            WireError::Codec(CodecError::Malformed(format!(
                "frame payload is not UTF-8: {e}"
            )))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_including_empty_and_binary() {
        for payload in [&b""[..], b"query g.edges 7 5", &[0u8, 255, 1, 128]] {
            let frame = encode_frame(payload);
            let mut cursor = &frame[..];
            let back = read_frame(&mut cursor).expect("valid frame");
            assert_eq!(back.as_deref(), Some(payload));
            assert!(cursor.is_empty(), "frame fully consumed");
        }
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut stream = Vec::new();
        for p in ["a", "bb", "ccc"] {
            stream.extend_from_slice(&encode_frame(p.as_bytes()));
        }
        let mut cursor = &stream[..];
        for p in ["a", "bb", "ccc"] {
            assert_eq!(
                read_frame(&mut cursor).expect("frame").as_deref(),
                Some(p.as_bytes())
            );
        }
        assert!(read_frame(&mut cursor).expect("clean eof").is_none());
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).expect("clean eof").is_none());
        let frame = encode_frame(b"payload");
        for cut in [1, 3, 6, frame.len() - 1] {
            let mut truncated = &frame[..cut];
            match read_frame(&mut truncated) {
                Err(WireError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected UnexpectedEof, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_magic_and_checksum_are_rejected() {
        let mut frame = encode_frame(b"hello");
        frame[4] = b'X'; // first magic byte of the body
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Codec(CodecError::BadMagic))
        ));
        let mut frame = encode_frame(b"hello");
        let mid = 4 + 8 + 2; // somewhere inside the payload block
        frame[mid] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Codec(CodecError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocation() {
        // Length prefix below the minimum body size.
        let mut small = Vec::new();
        small.extend_from_slice(&(MIN_FRAME_BYTES as u32 - 1).to_le_bytes());
        small.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            read_frame(&mut &small[..]),
            Err(WireError::BadLength(_))
        ));
        // Length prefix claiming a multi-gigabyte body.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn trailing_bytes_inside_the_body_are_malformed() {
        // Build a body with extra bytes between the payload block and the
        // checksum, checksummed correctly — only the trailing-byte check
        // can catch it.
        let mut w = Writer::with_magic(&WIRE_MAGIC);
        w.put_block(b"x");
        w.put_u32(0xDEAD);
        let body = w.finish();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Codec(CodecError::Malformed(_)))
        ));
    }
}
