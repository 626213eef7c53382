//! End-to-end tests of the network front-end over real sockets: routing,
//! keep-alive, wire-level bit-identity with an in-process engine, typed
//! rejections, admission-control shedding, and slow-client containment.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use imcat_ckpt::Artifact;
use imcat_data::{generate, SynthConfig};
use imcat_models::{Bprmf, RecModel, TrainConfig};
use imcat_net::http::read_response;
use imcat_net::{closed_loop, open_loop, NetConfig, Server};
use imcat_obs::Json;
use imcat_serve::{Engine, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Servers spawn worker threads that dispatch on the process-global pool;
/// serialize the socket tests so their load patterns don't interleave.
fn net_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn artifact() -> &'static Artifact {
    static ART: OnceLock<Artifact> = OnceLock::new();
    ART.get_or_init(|| {
        let synth = generate(&SynthConfig::tiny(), 47);
        let mut rng = StdRng::seed_from_u64(47 ^ 0x5eed);
        let data = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
        let mut rng = StdRng::seed_from_u64(23);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        for _ in 0..3 {
            model.train_epoch(&mut rng);
        }
        model.export_artifact(&data).expect("bprmf exports an artifact")
    })
}

fn start(cfg: NetConfig) -> Server {
    Server::start(artifact(), &ServeConfig::default(), cfg, "127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// One request on a fresh `Connection: close` socket.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf).expect("read response")
}

/// One POST on a fresh `Connection: close` socket, with a body.
fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf).expect("read response")
}

/// The `items` and `score_bits` arrays of a `/recommend` answer.
fn items_and_bits(body: &str) -> (Vec<u32>, Vec<u32>) {
    let doc = Json::parse(body).expect("response is JSON");
    let field = |name: &str| -> Vec<u32> {
        doc.get(name)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{name} array"))
            .iter()
            .map(|v| v.as_f64().unwrap() as u32)
            .collect()
    };
    (field("items"), field("score_bits"))
}

#[test]
fn routes_health_stats_and_errors() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, ..Default::default() });
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // Query strings and fragments never break routing.
    let (status, _) = get(addr, "/healthz?probe=1&ts=2");
    assert_eq!(status, 200);

    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("stats is JSON");
    assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(2.0));
    assert_eq!(doc.get("n_items").and_then(Json::as_f64), Some(90.0));

    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, body) = get(addr, "/recommend");
    assert_eq!(status, 400, "missing params: {body}");
    let (status, _) = get(addr, "/recommend?user=abc&k=5");
    assert_eq!(status, 400);
    // A stale user id is the engine's typed rejection, not a panic or 500.
    let n = artifact().n_users();
    let (status, body) = get(addr, &format!("/recommend?user={n}&k=5"));
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "typed error missing: {body}");
    let (status, body) = get(addr, "/recommend?user=0&k=0");
    assert_eq!(status, 400);
    assert!(body.contains("at least 1"), "typed error missing: {body}");

    // Non-GET is refused.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /recommend HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let (status, _) = read_response(&mut stream, &mut buf).unwrap();
    assert_eq!(status, 405);

    let stats = server.stats();
    assert!(stats.rejected >= 4, "rejections must be counted: {stats:?}");
    server.shutdown();
}

/// Wire-level parity: answers served over the socket (at 2 shards, through
/// the full accept/queue/tick path) carry exactly the score bits an
/// in-process unsharded engine computes.
#[test]
fn served_answers_are_bit_identical_to_local_engine() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, ..Default::default() });
    let addr = server.addr();
    let mut reference = Engine::new(artifact().clone(), ServeConfig::default()).unwrap();

    // Keep-alive: every user through ONE connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut buf = Vec::new();
    for user in 0..artifact().n_users() as u32 {
        write!(stream, "GET /recommend?user={user}&k=10 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream, &mut buf).expect("keep-alive response");
        assert_eq!(status, 200, "user {user}: {body}");
        let (items, bits) = items_and_bits(&body);
        let want = reference.recommend(user, 10).unwrap();
        assert_eq!(items, want.iter().map(|r| r.item).collect::<Vec<_>>(), "user {user}");
        assert_eq!(
            bits,
            want.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
            "user {user}: score bits diverged over the wire"
        );
    }
    drop(stream);
    server.shutdown();
}

/// Tick composition depends on timing: which requests share a batch, and
/// whether a user's answer comes from the cache or a fresh scoring pass.
/// The answers must not. Eight keep-alive connections, one worker each,
/// fire in parallel, every user twice at two cutoffs, and every answer must
/// carry the local engine's exact items and score bits. Whether requests
/// from different connections actually share a tick is up to the
/// scheduler, so the test does not count on it: on a busy machine every
/// tick may hold one job, and the test then only covers the same ground as
/// `served_answers_are_bit_identical_to_local_engine`.
#[test]
fn parallel_connections_get_the_local_engines_answers() {
    let _guard = net_lock().lock().unwrap();
    const CONNS: u32 = 8;
    let server = start(NetConfig { workers: CONNS as usize, ..Default::default() });
    let addr = server.addr();
    let n = artifact().n_users() as u32;

    // All clients connect before any sends, so their requests overlap.
    let start_line = Arc::new(Barrier::new(CONNS as usize));
    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            let start_line = start_line.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                start_line.wait();
                let mut buf = Vec::new();
                let mut answers = Vec::new();
                for round in 0..2 {
                    for user in (c..n).step_by(CONNS as usize) {
                        let k: usize = if (user + round) % 2 == 0 { 5 } else { 10 };
                        write!(
                            stream,
                            "GET /recommend?user={user}&k={k} HTTP/1.1\r\nHost: t\r\n\r\n"
                        )
                        .unwrap();
                        let (status, body) =
                            read_response(&mut stream, &mut buf).expect("keep-alive response");
                        assert_eq!(status, 200, "user {user}: {body}");
                        answers.push((user, k, items_and_bits(&body)));
                    }
                }
                answers
            })
        })
        .collect();

    let mut reference = Engine::new(artifact().clone(), ServeConfig::default()).unwrap();
    let mut checked = 0;
    for client in clients {
        for (user, k, (items, bits)) in client.join().expect("client thread") {
            let want = reference.recommend(user, k).unwrap();
            assert_eq!(items, want.iter().map(|r| r.item).collect::<Vec<_>>(), "user {user} k {k}");
            assert_eq!(
                bits,
                want.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
                "user {user} k {k}: score bits depend on the tick"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 2 * n as usize);
    assert_eq!(server.stats().answered, checked as u64);
    server.shutdown();
}

/// Full mutable-serving surface over the wire: registration returns dense
/// ids, single and batch ingestion are accepted with per-line typed errors,
/// an all-rejected batch is a `400`, and the cold user is servable right
/// after the mutating tick (the batcher folds before storing counters).
#[test]
fn streaming_mutations_round_trip_over_the_wire() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, ..Default::default() });
    let addr = server.addr();
    let n_users = artifact().n_users() as u32;
    let n_items = artifact().n_items() as u32;

    let (status, body) = post(addr, "/users", "");
    assert_eq!(status, 201, "register user: {body}");
    let cold = Json::parse(&body).unwrap().get("user").and_then(Json::as_f64).unwrap() as u32;
    assert_eq!(cold, n_users, "cold user id must be the next dense id");
    let (status, body) = post(addr, "/items", "");
    assert_eq!(status, 201, "register item: {body}");
    let new_item = Json::parse(&body).unwrap().get("item").and_then(Json::as_f64).unwrap() as u32;
    assert_eq!(new_item, n_items, "cold item id must be the next dense id");

    // Single interaction via query parameters, no body.
    let (status, body) = post(addr, &format!("/ingest?user={cold}&item=3"), "");
    assert_eq!(status, 200, "query ingest: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_f64), Some(1.0), "{body}");
    assert_eq!(doc.get("rejected").and_then(Json::as_f64), Some(0.0), "{body}");

    // Batch via body lines; the middle line names a stale item and is
    // rejected per-line without sinking the rest of the batch.
    let batch = format!("{cold} 5\n0 {}\n{cold} {new_item}\n", n_items + 40);
    let (status, body) = post(addr, "/ingest", &batch);
    assert_eq!(status, 200, "batch ingest: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_f64), Some(2.0), "{body}");
    assert_eq!(doc.get("rejected").and_then(Json::as_f64), Some(1.0), "{body}");
    let errors = doc.get("errors").and_then(Json::as_array).unwrap();
    assert_eq!(errors[0].get("index").and_then(Json::as_f64), Some(1.0), "{body}");
    let msg = errors[0].get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("out of range"), "typed per-line error missing: {body}");

    // Every line stale: the whole request is a 400, still with typed lines.
    let (status, body) = post(addr, "/ingest", &format!("{} 0\n", n_users + 99));
    assert_eq!(status, 400, "all-rejected batch: {body}");
    assert!(body.contains("out of range"), "all-rejected batch keeps typed errors: {body}");
    // Malformed lines and empty payloads are parse-level 400s.
    let (status, _) = post(addr, "/ingest", "1 2 3\n");
    assert_eq!(status, 400);
    let (status, _) = post(addr, "/ingest", "");
    assert_eq!(status, 400);

    // The cold user is servable immediately: the batcher folds pending
    // entities at the end of every mutating tick.
    let (status, body) = get(addr, &format!("/recommend?user={cold}&k=5"));
    assert_eq!(status, 200, "cold user recommend: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("items").and_then(Json::as_array).unwrap().len(), 5, "{body}");

    // /stats reflects the mutations and reports the live knob registry.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("ingested").and_then(Json::as_f64), Some(3.0), "{body}");
    assert_eq!(doc.get("n_users").and_then(Json::as_f64), Some((n_users + 1) as f64), "{body}");
    assert_eq!(doc.get("n_items").and_then(Json::as_f64), Some((n_items + 1) as f64), "{body}");
    let knobs = doc.get("knobs").expect("stats exposes the knob registry");
    assert!(knobs.get("IMCAT_INGEST_FOLD_LAMBDA").is_some(), "knob registry missing: {body}");
    assert_eq!(server.stats().ingested, 3);
    server.shutdown();
}

/// Admission control: with one worker and a one-deep connection queue, a
/// third concurrent connection is shed with a fast 503 by the acceptor —
/// and the counter records it.
#[test]
fn overload_sheds_with_fast_503() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig {
        shards: 1,
        workers: 1,
        queue: 1,
        deadline: Duration::from_millis(400),
        ..Default::default()
    });
    let addr = server.addr();

    // Two idle connections pin the worker and fill the queue...
    let _idle_a = TcpStream::connect(addr).expect("connect idle a");
    std::thread::sleep(Duration::from_millis(50));
    let _idle_b = TcpStream::connect(addr).expect("connect idle b");
    std::thread::sleep(Duration::from_millis(50));
    // ...so the third is answered 503 by the acceptor itself, fast.
    let t0 = Instant::now();
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    let mut buf = Vec::new();
    let (status, body) = read_response(&mut shed, &mut buf).expect("shed response");
    assert_eq!(status, 503, "expected shed: {body}");
    assert!(body.contains("overloaded"));
    assert!(
        t0.elapsed() < Duration::from_millis(300),
        "shed 503 must be fast, took {:?}",
        t0.elapsed()
    );
    assert!(server.stats().shed >= 1, "shed must be counted: {:?}", server.stats());
    server.shutdown();
}

/// Both load generators complete a small run against a live server: the
/// closed loop answers everything; the open loop (which sheds `503`s into
/// its own bucket) accounts for every scheduled request exactly once.
#[test]
fn load_generators_round_trip() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, workers: 2, ..Default::default() });
    let addr = server.addr();
    let n = artifact().n_users() as u32;
    let stream: Vec<(u32, usize)> = (0..120u32).map(|i| (i % n, 10)).collect();

    let closed = closed_loop(addr, &stream, 3);
    assert_eq!(closed.ok, stream.len() as u64, "closed loop: {closed:?}");
    assert_eq!(closed.errors, 0, "closed loop: {closed:?}");
    assert!(closed.p50_us > 0.0 && closed.p99_us >= closed.p50_us);

    let open = open_loop(addr, &stream, 400.0, 4);
    assert_eq!(open.ok + open.shed + open.errors, stream.len() as u64, "open loop: {open:?}");
    assert!(open.ok > 0, "open loop answered nothing: {open:?}");
    assert!((open.offered_qps - 400.0).abs() < 1e-9);
    server.shutdown();
}

/// A slowloris client trickling a partial head is cut off by the
/// per-request deadline with 408 (or a drop) and cannot hold its worker
/// past the deadline.
#[test]
fn slow_clients_are_timed_out() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { deadline: Duration::from_millis(300), ..Default::default() });
    let addr = server.addr();

    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.write_all(b"GET /hea").expect("partial head");
    slow.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let t0 = Instant::now();
    let mut response = String::new();
    let _ = slow.read_to_string(&mut response);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "slow connection must be cut off by the 300ms deadline"
    );
    assert!(
        response.is_empty() || response.starts_with("HTTP/1.1 408"),
        "expected 408 or drop, got: {response}"
    );
    // The server is still fully alive afterwards.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(server.stats().timeouts >= 1, "timeout must be counted: {:?}", server.stats());
    server.shutdown();
}
