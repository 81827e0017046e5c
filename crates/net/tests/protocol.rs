//! Protocol robustness: hostile bytes never panic the stack.
//!
//! Two layers under test. The pure codec layer: every mutation of a
//! valid frame — truncation at each index, version/opcode corruption,
//! poisoned tensor headers, trailing garbage — decodes to a typed
//! [`WireError`], never a panic. The server layer: a live `NetServer`
//! fed garbage, oversized prefixes, half-frames, and abrupt
//! disconnects answers with a typed `Protocol` error (or just drops the
//! connection), stays alive for well-behaved clients, and shuts down
//! cleanly afterwards — while an honest peer that pauses mid-frame is
//! still served.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gqa_net::{
    decode_request, decode_response, encode_request, encode_response, write_frame, NetClient,
    NetConfig, NetServer, RemoteError, RequestFrame, ResponseFrame, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use gqa_serve::{EngineBuilder, OperatorPlan};
use gqa_served::{BatchConfig, ModelSpec, Request, ServedBuilder, ServedConfig};
use gqa_tensor::Tensor;

const DIM: usize = 4;

fn corpus() -> Vec<Vec<u8>> {
    vec![
        encode_request(&RequestFrame::Hello {
            client: "corpus".into(),
        }),
        encode_request(&RequestFrame::Infer {
            tenant: 3,
            model: 1,
            input: Tensor::from_vec(vec![0.5, -0.25, f32::NAN, 7.0], &[2, 2]),
        }),
        encode_request(&RequestFrame::DecodeOpen {
            tenant: 0,
            model: 0,
        }),
        encode_request(&RequestFrame::DecodeStep {
            session: 9,
            input: Tensor::from_vec(vec![1.0], &[1]),
        }),
        encode_request(&RequestFrame::Stats),
    ]
}

/// Every truncation of every valid request decodes to a typed error —
/// the decoder is total over byte prefixes.
#[test]
fn every_truncation_is_a_typed_error() {
    for frame in corpus() {
        for cut in 0..frame.len() {
            let r = decode_request(&frame[..cut]);
            assert!(
                r.is_err(),
                "truncating to {cut}/{} bytes must not decode",
                frame.len()
            );
        }
    }
}

/// Single-byte corruption anywhere in a valid frame either still
/// decodes (the byte was payload) or fails typed — it never panics.
/// This is the fuzz-shaped sweep: 256 variants per byte position.
#[test]
fn single_byte_corruption_never_panics() {
    for frame in corpus() {
        for pos in 0..frame.len() {
            for v in [0x00u8, 0x01, 0x7F, 0x80, 0xFE, 0xFF] {
                let mut bad = frame.clone();
                bad[pos] = v;
                let _ = decode_request(&bad); // must return, never panic
                let _ = decode_response(&bad);
            }
        }
    }
}

#[test]
fn version_and_opcode_corruption_are_typed() {
    let mut frame = encode_request(&RequestFrame::Stats);
    frame[0] = PROTOCOL_VERSION + 1;
    assert!(matches!(
        decode_request(&frame),
        Err(WireError::BadVersion(v)) if v == PROTOCOL_VERSION + 1
    ));
    let mut frame = encode_request(&RequestFrame::Stats);
    frame[1] = 0x6E;
    assert!(matches!(
        decode_request(&frame),
        Err(WireError::BadOpcode(0x6E))
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut frame = encode_request(&RequestFrame::Stats);
    frame.push(0xAB);
    assert!(matches!(
        decode_request(&frame),
        Err(WireError::TrailingBytes { extra: 1 })
    ));
}

/// Poisoned tensor headers — zero dims, too many dims, a dim-product
/// that overflows or exceeds the frame bound — all fail typed.
#[test]
fn poisoned_tensor_headers_fail_typed() {
    let valid = encode_request(&RequestFrame::Infer {
        tenant: 0,
        model: 0,
        input: Tensor::from_vec(vec![1.0, 2.0], &[2]),
    });
    // Layout: version, opcode, tenant u64, model u64, ndim u8, dims...
    let ndim_at = 1 + 1 + 8 + 8;
    for bad_ndim in [0u8, 9, 255] {
        let mut f = valid.clone();
        f[ndim_at] = bad_ndim;
        assert!(
            decode_request(&f).is_err(),
            "ndim {bad_ndim} must be rejected"
        );
    }
    // A huge dim: the element count must be bounded by the frame cap,
    // not trusted into an allocation.
    let mut f = valid.clone();
    f[ndim_at + 1..ndim_at + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_request(&f).is_err(), "absurd dim must be rejected");
}

// ---------------------------------------------------------------------
// Live-server robustness
// ---------------------------------------------------------------------

fn tiny_server() -> NetServer {
    let served = ServedBuilder::new(EngineBuilder::new(OperatorPlan::new()).build().unwrap())
        .with_model(ModelSpec::new("double", &[DIM], |g, x| g.scale(x, 2.0)))
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait: 0,
                capacity: 16,
                ..BatchConfig::default()
            },
            workers: 1,
            tenants: 2,
        })
        .with_virtual_clock()
        .build();
    NetServer::spawn(served, "127.0.0.1:0", NetConfig::default()).expect("bind")
}

/// Reads exactly one response frame off a raw stream.
fn read_response(s: &mut TcpStream) -> Option<ResponseFrame> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).ok()?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload).ok()?;
    decode_response(&payload).ok()
}

/// A well-framed payload of garbage gets a typed `Protocol` error back,
/// then the server closes that connection — and keeps serving others.
#[test]
fn garbage_payload_gets_a_typed_error_then_close() {
    let server = tiny_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut s, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    match read_response(&mut s) {
        Some(ResponseFrame::Error(RemoteError::Protocol(_))) => {}
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    // The connection is closed after the error reply.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(server.stats().protocol_errors, 1);

    // A well-behaved client is unaffected.
    let mut client = NetClient::connect(server.addr(), "fine").unwrap();
    let out = client
        .infer(0, 0, Tensor::from_vec(vec![1.0; DIM], &[DIM]))
        .unwrap();
    assert_eq!(out.data, vec![2.0; DIM]);
}

/// A hostile length prefix beyond the frame cap is refused without
/// allocating, typed, and the connection is dropped.
#[test]
fn oversized_prefix_is_refused_without_allocation() {
    let server = tiny_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&(u32::try_from(MAX_FRAME_LEN).unwrap() + 1).to_le_bytes())
        .unwrap();
    match read_response(&mut s) {
        Some(ResponseFrame::Error(RemoteError::Protocol(msg))) => {
            assert!(msg.contains("oversized"), "message names the cause: {msg}");
        }
        other => panic!("expected a typed oversized error, got {other:?}"),
    }
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(server.stats().protocol_errors, 1);
}

/// Half a frame followed by an abrupt close is a clean drop: no reply
/// owed, no protocol-error count (the peer just died), no wedge.
#[test]
fn half_frame_disconnect_is_a_clean_drop() {
    let server = tiny_server();
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let frame = encode_request(&RequestFrame::Stats);
        // Length prefix promises more than we send.
        s.write_all(&u32::try_from(frame.len()).unwrap().to_le_bytes())
            .unwrap();
        s.write_all(&frame[..frame.len() / 2]).unwrap();
        // Drop: mid-frame EOF.
    }
    // The server shrugs: a fresh client gets full service.
    let mut client = NetClient::connect(server.addr(), "after").unwrap();
    assert!(client
        .stats()
        .unwrap()
        .contains("gqa_served_submitted_total"));
    assert_eq!(server.stats().protocol_errors, 0);
}

/// An honest slow peer that pauses mid-frame for longer than the
/// server's 25 ms idle poll still gets a bit-exact answer: the poll only
/// bounds the wait for a frame's first byte.
#[test]
fn slow_peer_pausing_mid_frame_is_served() {
    let server = tiny_server();
    let input = Tensor::from_vec(vec![0.5, -1.25, f32::MIN_POSITIVE, 7.0], &[DIM]);
    let mut framed = Vec::new();
    let infer = RequestFrame::Infer {
        tenant: 0,
        model: 0,
        input: input.clone(),
    };
    write_frame(&mut framed, &encode_request(&infer)).unwrap();

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let half = framed.len() / 2;
    s.write_all(&framed[..half]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    s.write_all(&framed[half..]).unwrap();

    let want = server
        .served()
        .serve(Request {
            tenant: 0,
            model: 0,
            input,
        })
        .unwrap();
    let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    match read_response(&mut s) {
        Some(ResponseFrame::Output { output }) => assert_eq!(bits(&output), bits(&want)),
        other => panic!("expected the output row, got {other:?}"),
    }
}

/// Unknown-version frames are refused per-frame (typed), not by
/// killing the listener.
#[test]
fn unknown_version_is_refused_typed() {
    let server = tiny_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let mut frame = encode_request(&RequestFrame::Stats);
    frame[0] = 0x7F;
    write_frame(&mut s, &frame).unwrap();
    match read_response(&mut s) {
        Some(ResponseFrame::Error(RemoteError::Protocol(msg))) => {
            assert!(msg.contains("version"), "message names the cause: {msg}");
        }
        other => panic!("expected a typed version error, got {other:?}"),
    }
}

/// Many hostile connections in a row never take the server down, and
/// shutdown afterwards is clean (drop returns; nothing is wedged).
#[test]
fn hostile_connection_storm_then_clean_shutdown() {
    let server = tiny_server();
    for i in 0..16 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        match i % 4 {
            0 => {
                let _ = write_frame(&mut s, &[i as u8; 3]);
            }
            1 => {
                let _ = s.write_all(&u32::MAX.to_le_bytes());
            }
            2 => {
                let _ = s.write_all(&[i as u8]); // lone partial prefix
            }
            _ => {} // connect-and-leave
        }
        // All dropped abruptly, replies unread.
    }
    // Still serving.
    let mut client = NetClient::connect(server.addr(), "survivor").unwrap();
    let out = client
        .infer(1, 0, Tensor::from_vec(vec![-1.5; DIM], &[DIM]))
        .unwrap();
    assert_eq!(out.data, vec![-3.0; DIM]);
    drop(server); // must not hang
}

/// Response-side codec round-trips every frame kind, bit-for-bit on
/// tensor payloads (NaN included).
#[test]
fn response_codec_round_trips() {
    let frames = vec![
        ResponseFrame::HelloOk {
            version: PROTOCOL_VERSION,
            models: 2,
            tenants: 4,
        },
        ResponseFrame::Output {
            output: Tensor::from_vec(vec![f32::NAN, -0.0, 1.5e-40], &[3]),
        },
        ResponseFrame::DecodeOpened { session: 7 },
        ResponseFrame::StatsText {
            text: "gqa_served_submitted_total 3\n".into(),
        },
        ResponseFrame::Error(RemoteError::QuotaExceeded {
            queued: 64,
            quota: 64,
        }),
        ResponseFrame::Error(RemoteError::InvalidStep(
            "the context is full (32 of 32 tokens); reset() starts a fresh sequence".into(),
        )),
    ];
    for f in frames {
        let rt = decode_response(&encode_response(&f)).unwrap();
        match (&f, &rt) {
            (ResponseFrame::Output { output: a }, ResponseFrame::Output { output: b }) => {
                assert_eq!(a.shape, b.shape);
                let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "tensor payloads round-trip bitwise");
            }
            _ => assert_eq!(f, rt),
        }
    }
}
