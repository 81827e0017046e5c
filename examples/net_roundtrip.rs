//! The network layer end to end: a `NetServer` fronting the serving
//! stack over real loopback sockets, a blocking `NetClient` round trip
//! proven bit-identical to the in-process path, typed errors surviving
//! the wire, per-tenant fair admission, and the Prometheus export.
//!
//! Run with: `cargo run --release --example net_roundtrip`

use gqa::funcs::NonLinearOp;
use gqa::net::{NetClient, NetConfig, NetError, NetServer, RemoteError};
use gqa::registry::Method;
use gqa::serve::{EngineBuilder, OpPlan, OperatorPlan};
use gqa::served::{BatchConfig, ModelSpec, Request, ServedBuilder, ServedConfig};
use gqa::tensor::{Tensor, UnaryKind};

fn main() {
    // 1. The serving stack below the socket: an engine serving GELU
    //    through an 8-entry INT8 GQA-LUT (example-sized search budget),
    //    one matmul + LUT-GELU + row-softmax model, a coalescing
    //    front-end with four tenants, each allowed 64 queued requests
    //    in its own fair lane (round-robin batch filling, typed
    //    QuotaExceeded past the quota).
    let base = OpPlan::new(Method::GqaRm).with_seed(7).with_budget(0.05);
    let engine = EngineBuilder::new(OperatorPlan::new().with(NonLinearOp::Gelu, base))
        .build()
        .expect("engine build");

    const DIM: usize = 64;
    const TENANTS: usize = 4;
    let weight: Vec<f32> = (0..DIM * DIM)
        .map(|i| ((i as f32) * 0.37).sin() * 0.5)
        .collect();
    let spec = ModelSpec::new("mlp", &[DIM], move |g, x| {
        let w = g.input(Tensor::from_vec(weight.clone(), &[DIM, DIM]));
        let h = g.matmul(x, w);
        let u = g.unary(h, UnaryKind::Gelu);
        g.softmax_rows(u)
    });
    let served = ServedBuilder::new(engine)
        .with_model(spec)
        .with_config(ServedConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait: 0,
                capacity: 1024,
                quota: 64,
            },
            workers: 2,
            tenants: TENANTS,
        })
        .build();

    // 2. The network front door: bind an ephemeral loopback port. Socket
    //    requests go straight into the front-end's fair lanes.
    let server =
        NetServer::spawn(served, "127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    println!("serving on {}", server.addr());

    // 3. A blocking client: the Hello handshake pins the protocol
    //    version and advertises the model/tenant space.
    let mut client = NetClient::connect(server.addr(), "net_roundtrip").expect("connect");
    let info = client.server_info();
    println!(
        "handshake: protocol v{}, {} model(s), {} tenant(s)",
        info.version, info.models, info.tenants
    );

    // 4. The transport contract, checked live: the socket response is
    //    bit-identical to the in-process path on the same server —
    //    tensors travel as raw f32 bit patterns, so the wire cannot
    //    perturb a value.
    let input = Tensor::from_vec((0..DIM).map(|j| (j as f32 * 0.21).sin()).collect(), &[DIM]);
    let remote = client.infer(0, 0, input.clone()).expect("socket infer");
    let local = server
        .served()
        .serve(Request {
            tenant: 0,
            model: 0,
            input,
        })
        .expect("in-process serve");
    let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&remote), bits(&local), "socket must equal in-process");
    println!("round trip: socket output bit-identical to in-process serve");

    // 5. Failures come back typed, not as dead sockets: the connection
    //    survives and the next request is served normally.
    match client.infer(0, 7, Tensor::from_vec(vec![0.0; DIM], &[DIM])) {
        Err(NetError::Remote(RemoteError::UnknownModel(7))) => {
            println!("typed error: unknown model id 7 (connection still live)");
        }
        other => panic!("expected typed UnknownModel, got {other:?}"),
    }
    client
        .infer(0, 0, Tensor::from_vec(vec![1.0; DIM], &[DIM]))
        .expect("connection survives a typed error");

    // 6. The observability surface: a Prometheus text export over the
    //    same wire — serving/engine/net counters plus per-tenant
    //    latency and queue-wait histogram series.
    let report = client.stats().expect("stats");
    for line in report.lines().take(8) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", report.lines().count());

    // 7. Drop order does the full shutdown dance: accept loop, the
    //    serving front-end (resolving every queued request), then the
    //    connection threads.
    drop(client);
    drop(server);
    println!("clean shutdown");
}
