//! Properties of the wire protocol: every message kind round-trips
//! bit-exactly through encode/decode, and no byte string — arbitrary,
//! truncated or over-long — makes the decoders or the framers panic.

use std::io::ErrorKind;

use bw_serve::{
    read_frame, try_extract_frame, write_frame, WireError, WireRequest, WireResponse, MAX_FRAME,
};
use proptest::prelude::*;

/// Strings of arbitrary code points, multi-byte UTF-8 included, short
/// enough that no u16 length cuts them.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..40).prop_map(|cps| {
        cps.into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    })
}

/// Vectors of arbitrary f32 bit patterns, NaNs and signed zeros included.
fn floats() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(any::<u32>(), 0..64)
        .prop_map(|bits| bits.into_iter().map(f32::from_bits).collect())
}

fn request() -> impl Strategy<Value = WireRequest> {
    (0u8..3, text(), any::<u64>(), floats()).prop_map(
        |(kind, model, deadline_us, input)| match kind {
            0 => WireRequest::Infer {
                model,
                deadline_us,
                input,
            },
            1 => WireRequest::Metrics,
            _ => WireRequest::Prometheus,
        },
    )
}

fn response() -> impl Strategy<Value = WireResponse> {
    (
        0u8..5,
        text(),
        prop::collection::vec(any::<u64>(), 11..12),
        floats(),
    )
        .prop_map(|(kind, text, n, output)| match kind {
            0 => WireResponse::Infer {
                request_id: n[0],
                latency_us: n[1],
                worker: n[2] as u32,
                retries: n[3] as u32,
                queue_wait_us: n[4],
                service_us: n[5],
                npu_cycles: n[6],
                npu_macs: n[7],
                dep_stall_cycles: n[8],
                resource_stall_cycles: n[9],
                network_us: n[10],
                output,
            },
            1 => WireResponse::Metrics(text),
            2 => WireResponse::Prometheus(text),
            3 => WireResponse::Error(text),
            _ => WireResponse::SlaUnmeetable {
                model: text,
                bound_us: n[0],
                budget_us: n[1],
            },
        })
}

/// Every tag the protocol defines, so arbitrary payloads reach past the
/// tag check into each decoder.
const TAGS: [u8; 8] = [0x01, 0x02, 0x03, 0x81, 0x82, 0x83, 0xEE, 0xEF];

/// Arbitrary payloads, half of them behind a valid tag.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        0usize..TAGS.len(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(tagged, tag, mut bytes)| {
            if tagged {
                bytes.insert(0, TAGS[tag]);
            }
            bytes
        })
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, payload).unwrap();
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding an encoded request gives back the same bytes on
    /// re-encoding (bit-exact, so NaN inputs count too), and the same
    /// message whenever its floats compare equal to themselves.
    #[test]
    fn requests_round_trip(req in request()) {
        let bytes = req.encode();
        let back = WireRequest::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes);
        if let WireRequest::Infer { input, .. } = &req {
            if input.iter().all(|x| !x.is_nan()) {
                prop_assert_eq!(back, req);
            }
        }
    }

    /// The same for every response kind.
    #[test]
    fn responses_round_trip(resp in response()) {
        let bytes = resp.encode();
        let back = WireResponse::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes);
        let nan = matches!(&resp, WireResponse::Infer { output, .. } if output.iter().any(|x| x.is_nan()));
        if !nan {
            prop_assert_eq!(back, resp);
        }
    }

    /// A strict prefix of an encoded message, or one with a trailing
    /// byte, is refused; a strict prefix of its frame is not yet a
    /// frame, and leaves the accumulation buffer untouched.
    #[test]
    fn truncated_messages_are_refused(req in request(), resp in response(), extra in any::<u8>()) {
        let decodes_request: fn(&[u8]) -> bool = |b| WireRequest::decode(b).is_ok();
        let decodes_response: fn(&[u8]) -> bool = |b| WireResponse::decode(b).is_ok();
        for (payload, decodes) in [(req.encode(), decodes_request), (resp.encode(), decodes_response)] {
            for cut in 0..payload.len() {
                prop_assert!(!decodes(&payload[..cut]), "prefix of {} bytes decoded", cut);
            }
            let mut longer = payload.clone();
            longer.push(extra);
            prop_assert!(!decodes(&longer), "trailing byte accepted");

            let frame = framed(&payload);
            for cut in 0..frame.len() {
                let mut buf = frame[..cut].to_vec();
                prop_assert_eq!(try_extract_frame(&mut buf), Ok(None));
                prop_assert_eq!(buf.len(), cut);
                // Clean EOF before a length prefix; an error inside one.
                let read = read_frame(&mut &frame[..cut]);
                let clean = if cut == 0 { matches!(read, Ok(None)) } else { read.is_err() };
                prop_assert!(clean, "read_frame on a {}-byte prefix", cut);
            }
            let mut buf = frame.clone();
            prop_assert_eq!(try_extract_frame(&mut buf), Ok(Some(payload.clone())));
            prop_assert!(buf.is_empty());
        }
    }

    /// Arbitrary bytes never panic a decoder or a framer, and a frame
    /// split off the buffer consumes exactly its length prefix and
    /// payload.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in payload()) {
        let _ = WireRequest::decode(&bytes);
        let _ = WireResponse::decode(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
        let mut buf = bytes.clone();
        match try_extract_frame(&mut buf) {
            Ok(Some(frame)) => {
                prop_assert_eq!(&bytes[4..4 + frame.len()], frame.as_slice());
                prop_assert_eq!(buf.len(), bytes.len() - 4 - frame.len());
            }
            Ok(None) => prop_assert_eq!(buf, bytes),
            Err(e) => prop_assert!(matches!(e, WireError::FrameTooLarge(n) if n > MAX_FRAME)),
        }
    }

    /// Any length prefix above the cap is refused before a byte of the
    /// payload is buffered or allocated.
    #[test]
    fn oversized_length_prefixes_are_refused(
        len in (MAX_FRAME as u32 + 1)..=u32::MAX,
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        let before = buf.clone();
        prop_assert_eq!(try_extract_frame(&mut buf), Err(WireError::FrameTooLarge(len as usize)));
        prop_assert_eq!(buf, before.clone());
        let err = read_frame(&mut before.as_slice()).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
