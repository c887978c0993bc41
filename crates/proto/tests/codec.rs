//! Wire-codec properties and malformed-frame robustness.
//!
//! Half one: arbitrary requests and responses round-trip through the
//! codec bit-exactly (encode → frame-check → decode).
//!
//! Half two: a live in-process server is fed garbage — truncated frames,
//! out-of-bounds lengths, bad CRCs, unknown opcodes, random byte flips —
//! and must answer every recoverable case with a `Protocol` error while
//! keeping the connection usable, never panicking and never hanging.

use std::sync::Arc;
use std::time::Duration;

use ldbpp_common::coding::{put_fixed32, put_varint64};
use ldbpp_core::doc::Document;
use ldbpp_core::indexes::IndexKind;
use ldbpp_core::secondary_db::{SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::env::MemEnv;
use ldbpp_lsm::options::DbOptions;
use ldbpp_proto::wire::{check_frame, encode_frame, salvage_request_id};
use ldbpp_proto::{
    Client, ErrorCode, Hit, Request, Response, Server, ServerConfig, WireValue, WriteOp,
    MAX_FRAME_LEN,
};
use proptest::collection::vec;
use proptest::prelude::*;

// -- strategies -------------------------------------------------------------

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..48)
}

fn wire_value() -> impl Strategy<Value = WireValue> {
    prop_oneof![
        (0i64..1 << 40).prop_map(WireValue::Int),
        (-5i64..5).prop_map(WireValue::Int),
        vec(any::<u8>(), 0..24)
            .prop_map(|b| WireValue::Str(b.into_iter().map(|c| (b'a' + c % 26) as char).collect())),
    ]
}

fn opt_k() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..1000).prop_map(Some)]
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        (bytes(), bytes()).prop_map(|(pk, doc)| WriteOp::Put { pk, doc }),
        bytes().prop_map(|pk| WriteOp::Del { pk }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (bytes(), bytes()).prop_map(|(pk, doc)| Request::Put { pk, doc }),
        bytes().prop_map(|pk| Request::Get { pk }),
        bytes().prop_map(|pk| Request::Del { pk }),
        (wire_value(), opt_k(), any::<bool>()).prop_map(|(value, k, degraded)| Request::Lookup {
            attr: "UserID".into(),
            value,
            k,
            degraded
        }),
        (wire_value(), wire_value(), opt_k(), any::<bool>()).prop_map(|(lo, hi, k, degraded)| {
            Request::RangeLookup {
                attr: "Timestamp".into(),
                lo,
                hi,
                k,
                degraded,
            }
        }),
        vec(write_op(), 0..8).prop_map(|ops| Request::Batch { ops }),
        any::<bool>().prop_map(|include_integrity| Request::Stats { include_integrity }),
        any::<u64>().prop_map(|session_id| Request::Hello { session_id }),
        Just(Request::Shutdown),
    ]
}

fn hit() -> impl Strategy<Value = Hit> {
    (bytes(), 0u64..1 << 50, bytes()).prop_map(|(key, seq, doc)| Hit { key, seq, doc })
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NotFound),
        Just(ErrorCode::Corruption),
        Just(ErrorCode::NotSupported),
        Just(ErrorCode::InvalidArgument),
        Just(ErrorCode::Io),
        Just(ErrorCode::NoSpace),
        Just(ErrorCode::Protocol),
        Just(ErrorCode::Busy),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::Timeout),
        Just(ErrorCode::TooLarge),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        any::<u64>().prop_map(Response::Seq),
        prop_oneof![Just(None), bytes().prop_map(Some)].prop_map(Response::Doc),
        (vec(hit(), 0..6), vec(0u64..8, 0..4)).prop_map(|(hits, failed_shards)| Response::Hits {
            hits,
            failed_shards
        }),
        (0u64..500, any::<u64>())
            .prop_map(|(applied, last_seq)| Response::Batch { applied, last_seq }),
        bytes().prop_map(|b| Response::Stats(
            b.into_iter().map(|c| (b' ' + c % 64) as char).collect()
        )),
        (error_code(), bytes(), 0u64..10_000).prop_map(|(code, msg, retry_after_ms)| {
            Response::Err {
                code,
                message: msg.into_iter().map(|c| (b'a' + c % 26) as char).collect(),
                retry_after_ms,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips(id in any::<u64>(), req in request()) {
        let frame = req.encode(id);
        let payload = check_frame(&frame[4..]).expect("self-encoded frame must pass CRC");
        let (got_id, got) = Request::decode(payload).expect("self-encoded request must decode");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, req);
        prop_assert_eq!(salvage_request_id(payload), id);
    }

    #[test]
    fn response_roundtrips(id in any::<u64>(), resp in response()) {
        let frame = resp.encode(id);
        let payload = check_frame(&frame[4..]).expect("self-encoded frame must pass CRC");
        let (got_id, got) = Response::decode(payload).expect("self-encoded response must decode");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, resp);
    }

    #[test]
    fn corrupting_any_byte_is_detected(req in request(), flip in 0usize..256, bit in 0u8..8) {
        // Flip one bit anywhere in the frame *after* the length prefix:
        // the CRC (or for CRC-byte flips, the mismatch with the payload)
        // must catch it — decode never sees a half-corrupt message.
        let frame = req.encode(42);
        let body_len = frame.len() - 4;
        let mut body = frame[4..].to_vec();
        body[flip % body_len] ^= 1 << bit;
        prop_assert!(check_frame(&body).is_err());
    }
}

// -- live-server fuzz -------------------------------------------------------

fn start_server() -> (ldbpp_proto::ServerHandle, Arc<SecondaryDb>) {
    let db = Arc::new(
        SecondaryDb::open(
            MemEnv::new(),
            "db",
            SecondaryDbOptions {
                base: DbOptions::small(),
                shards: 2,
                ..Default::default()
            },
            &[("UserID", IndexKind::LazyStandalone)],
        )
        .expect("open in-memory db"),
    );
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    (handle, db)
}

fn connect(handle: &ldbpp_proto::ServerHandle) -> Client {
    Client::connect_with_timeout(handle.local_addr(), Duration::from_secs(5)).expect("connect")
}

/// Prove a connection still works: one PUT must get a Seq ack.
fn assert_usable(client: &mut Client, tag: &str) {
    let doc = Document::parse(br#"{"UserID":"u1"}"#)
        .expect("doc")
        .to_bytes();
    let seq = client
        .put(format!("probe-{tag}").as_bytes(), &doc)
        .unwrap_or_else(|e| panic!("connection unusable after {tag}: {e}"));
    assert!(seq > 0);
}

#[test]
fn bad_crc_gets_protocol_error_and_connection_survives() {
    let (handle, _db) = start_server();
    let mut client = connect(&handle);

    let mut frame = Request::Get { pk: b"k".to_vec() }.encode(9);
    let n = frame.len();
    frame[n - 1] ^= 0xff; // corrupt the CRC itself
    client.send_raw(&frame).expect("send");
    let (id, resp) = client.read_response().expect("read error reply");
    assert_eq!(id, 0, "CRC-corrupt payload is untrusted, id must be 0");
    assert!(
        matches!(
            resp,
            Response::Err {
                code: ErrorCode::Protocol,
                ..
            }
        ),
        "want Protocol error, got {resp:?}"
    );
    assert_usable(&mut client, "bad-crc");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn unknown_opcode_gets_protocol_error_and_connection_survives() {
    let (handle, _db) = start_server();
    let mut client = connect(&handle);

    let mut payload = Vec::new();
    put_varint64(&mut payload, 77);
    payload.push(0x6f); // no such opcode
    client
        .send_raw(&encode_frame(&payload).expect("frame"))
        .expect("send");
    let (id, resp) = client.read_response().expect("read error reply");
    assert_eq!(id, 77, "id salvages from a well-framed bad body");
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::Protocol,
            ..
        }
    ));
    assert_usable(&mut client, "bad-opcode");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn oversized_length_gets_error_then_close() {
    let (handle, _db) = start_server();
    let mut client = connect(&handle);

    let mut header = Vec::new();
    put_fixed32(&mut header, (MAX_FRAME_LEN + 1) as u32);
    client.send_raw(&header).expect("send");
    let (_, resp) = client.read_response().expect("read error reply");
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::Protocol,
            ..
        }
    ));
    // The stream cannot re-sync, so the server closes; a fresh
    // connection must work.
    assert!(client.read_response().is_err(), "server should close");
    let mut fresh = connect(&handle);
    assert_usable(&mut fresh, "post-oversize");
    fresh.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn truncated_frame_gets_error_then_close() {
    let (handle, _db) = start_server();
    let mut client = connect(&handle);

    let frame = Request::Get { pk: b"k".to_vec() }.encode(5);
    client.send_raw(&frame[..frame.len() - 3]).expect("send");
    drop(client); // half a frame then close: server must not hang

    let mut fresh = connect(&handle);
    assert_usable(&mut fresh, "post-truncation");
    fresh.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn random_byte_flips_never_kill_the_server() {
    let (handle, _db) = start_server();
    // Deterministic per-iteration corruption (xorshift), many positions.
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for round in 0..24 {
        let mut client =
            Client::connect_with_timeout(handle.local_addr(), Duration::from_millis(500))
                .expect("connect");
        let doc = Document::parse(br#"{"UserID":"u7"}"#)
            .expect("doc")
            .to_bytes();
        let mut frame = Request::Put {
            pk: format!("fuzz-{round}").into_bytes(),
            doc,
        }
        .encode(round);
        let pos = (next() as usize) % frame.len();
        frame[pos] ^= (next() as u8) | 1;
        let _ = client.send_raw(&frame);
        // Any outcome is legal except a hang or a dead server: a valid
        // response, an error response, a timeout (frame still "open"),
        // or a close. Dropping the client resolves the open-frame case.
        let _ = client.read_response();
        drop(client);
        let mut probe = connect(&handle);
        assert_usable(&mut probe, &format!("flip-round-{round}"));
    }
    let mut last = connect(&handle);
    last.shutdown().expect("shutdown");
    handle.join().expect("join");
}
