//! `serve_mix`: an in-process `cmosaic-serve` server driven by two
//! closed-loop clients, one NDJSON client on the unix socket and one HTTP
//! `POST /run` client. Each client sends its next request only after the
//! previous `done`, as the real callers (studies, optimizer loops,
//! `examples/serve_client.rs`) do.
//!
//! Each round, each client runs one session of every caller of the
//! server in the repository (`examples/serve_client.rs`, the `perf_serve`
//! burst client, the placement optimizer), so exact repeats (result-cache
//! hits), new seeds on known patterns (analysis-cache hits) and new
//! patterns (cold) come in the proportions those callers produce; see
//! [`inputs::serve_stream`]. It is the only workload with the serve
//! framing, coalescing and caches on the critical path. The fixed job is
//! one round: eighteen requests from each client, both clients together.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use cmosaic::{BatchRunner, PolicyKind, Scenario, ScenarioSpec};
use cmosaic_serve::json::Json;
use cmosaic_serve::protocol::{done_event, slot_json, Request};
use cmosaic_serve::scheduler::SchedulerConfig;
use cmosaic_serve::server::{Server, ServerConfig};

use crate::inputs::{self, RequestClass, ServeRequest, ROUND_REQUESTS, WARMUP_REQUESTS};
use crate::layers::{self, SlotClock};
use crate::report::Run;
use crate::util::{median, peak_rss_mb, quantile, secs, timed, SplitMix};

/// Server starts timed per run (set-up is their median).
const SETUPS: usize = 151;
/// Rounds per run at least: peak memory is read after them.
const MIN_ROUNDS: usize = 40;
/// Rounds generated; a run stops here even if time is left.
const MAX_ROUNDS: usize = 200;
/// Distinct served specs in the traced run's study batch.
const STUDY_SLOTS: usize = 200;
/// Extra rounds of a traced run, with every response event recorded.
const TRACED_ROUNDS: usize = 3;
/// Closed-loop clients: one per transport.
const CLIENTS: usize = 2;

/// Round protocol between the main thread and the clients.
const NEXT_ROUND: u8 = 0;
const NEXT_TRACED_ROUND: u8 = 1;
const STOP: u8 = 2;

/// Batch worker threads of the server: two, or fewer on a smaller host.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A unix-socket path inside the checkout, short enough for `bind`.
fn socket_path(k: usize) -> PathBuf {
    PathBuf::from(format!("perfbench/.run/{}-{k}.sock", std::process::id()))
}

/// The NDJSON transport: one persistent unix-socket connection.
struct Ndjson {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// `Server::start`, then a first `ping` answered on the socket; returns
/// the time of both. The client arrives `arrival` after the start
/// returned (not counted): the acceptor polls every 5 ms, so a client
/// racing its first poll would wait either nothing or a whole period
/// depending on thread scheduling, while a client arriving at a random
/// phase waits a uniform share of it.
fn start(path: &Path, arrival: Duration) -> io::Result<(Server, Ndjson, f64)> {
    let t = Instant::now();
    let server = Server::start(ServerConfig {
        socket: Some(path.to_path_buf()),
        http: Some("127.0.0.1:0".into()),
        scheduler: SchedulerConfig {
            threads: threads(),
            ..SchedulerConfig::default()
        },
    })?;
    let started = secs(t);
    std::thread::sleep(arrival);
    let t = Instant::now();
    let mut writer = UnixStream::connect(path)?;
    let mut reader = BufReader::new(writer.try_clone()?);
    writer.write_all(b"{\"op\":\"ping\"}\n")?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.contains("\"pong\"") {
        return Err(io::Error::other(format!("unexpected ping reply {line:?}")));
    }
    Ok((server, Ndjson { reader, writer }, started + secs(t)))
}

/// One request as the client saw it.
#[derive(Debug, Clone, Default)]
struct Exchange {
    /// Index into the client's request stream.
    index: usize,
    latency_ms: f64,
    first_event_ms: Option<f64>,
    done: Option<String>,
    error: Option<String>,
    /// Response events a traced round recorded (each parsed as JSON).
    events: usize,
}

impl Exchange {
    /// Handles one response line; returns `true` at the terminal event.
    fn on_line(&mut self, line: &str, sent: Instant, record: bool) -> bool {
        if record {
            // A traced round records every event as a parsed span.
            if Json::parse(line).is_ok() {
                self.events += 1;
            }
        }
        if line.contains("\"event\":\"epoch\"") {
            if self.first_event_ms.is_none() {
                self.first_event_ms = Some(secs(sent) * 1e3);
            }
            false
        } else if line.contains("\"event\":\"done\"") {
            self.latency_ms = secs(sent) * 1e3;
            self.done = Some(line.to_string());
            true
        } else {
            self.latency_ms = secs(sent) * 1e3;
            self.error = Some(line.to_string());
            true
        }
    }
}

fn ndjson_exchange(t: &mut Ndjson, wire: &str, record: bool) -> io::Result<Exchange> {
    let mut ex = Exchange::default();
    let sent = Instant::now();
    t.writer.write_all(format!("{wire}\n").as_bytes())?;
    let mut line = String::new();
    loop {
        line.clear();
        if t.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("connection closed before done"));
        }
        if ex.on_line(line.trim_end(), sent, record) {
            return Ok(ex);
        }
    }
}

fn http_exchange(addr: SocketAddr, wire: &str, record: bool) -> io::Result<Exchange> {
    let mut ex = Exchange::default();
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!(
            "POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{wire}",
            wire.len()
        )
        .as_bytes(),
    )?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(io::Error::other(format!("HTTP status {line:?}")));
    }
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim_end(), 16)
            .map_err(|_| io::Error::other(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            return Err(io::Error::other("response ended before done"));
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        let text = String::from_utf8_lossy(&chunk[..size]);
        if ex.on_line(text.trim_end(), sent, record) {
            return Ok(ex);
        }
    }
}

/// The offline slots of a request's specs, in request order.
fn request_slots(req: &ServeRequest, slots: &[Json], slot_of: &HashMap<u64, usize>) -> Vec<Json> {
    req.specs
        .iter()
        .map(|(_, spec)| slots[slot_of[&spec.fingerprint()]].clone())
        .collect()
}

/// A client's transport.
enum Transport {
    Ndjson(Ndjson),
    Http(SocketAddr),
}

impl Transport {
    fn exchange(&mut self, req: &ServeRequest, index: usize, record: bool) -> Exchange {
        let wire = req.wire();
        let r = match self {
            Transport::Ndjson(t) => ndjson_exchange(t, &wire, record),
            Transport::Http(addr) => http_exchange(*addr, &wire, record),
        };
        let mut ex = r.unwrap_or_else(|e| Exchange {
            error: Some(e.to_string()),
            ..Exchange::default()
        });
        ex.index = index;
        ex
    }
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    warmup: Vec<Exchange>,
    measured: Vec<Exchange>,
    traced: Vec<Exchange>,
}

fn client(
    mut transport: Transport,
    reqs: &[ServeRequest],
    barrier: &Barrier,
    state: &AtomicU8,
) -> ClientLog {
    let mut log = ClientLog::default();
    for (i, r) in reqs.iter().enumerate().take(WARMUP_REQUESTS) {
        log.warmup.push(transport.exchange(r, i, false));
    }
    barrier.wait();
    let mut next = WARMUP_REQUESTS;
    loop {
        let mode = state.load(Ordering::SeqCst);
        if mode == STOP {
            break;
        }
        for (i, req) in reqs.iter().enumerate().skip(next).take(ROUND_REQUESTS) {
            let ex = transport.exchange(req, i, mode == NEXT_TRACED_ROUND);
            if mode == NEXT_TRACED_ROUND {
                log.traced.push(ex);
            } else {
                log.measured.push(ex);
            }
        }
        next += ROUND_REQUESTS;
        barrier.wait(); // round done
        barrier.wait(); // main decided the next round
    }
    log
}

/// Round walls measured by the main thread between barriers.
struct Rounds {
    measured: Vec<f64>,
    traced: Vec<f64>,
    /// Peak resident memory after [`MIN_ROUNDS`] rounds: by then both
    /// server caches are full and each client has passed twice through its
    /// half of the pattern set, so neither how many rounds fit in the run
    /// nor which patterns the seed drew first moves it.
    rss_mb: Option<f64>,
}

fn drive(barrier: &Barrier, state: &AtomicU8, seconds: f64, traced: bool) -> Rounds {
    let mut rounds = Rounds {
        measured: Vec::new(),
        traced: Vec::new(),
        rss_mb: None,
    };
    barrier.wait(); // warm-up done
    let start = Instant::now();
    loop {
        let mode = state.load(Ordering::SeqCst);
        let t = Instant::now();
        barrier.wait();
        let wall = secs(t);
        let next = if mode == NEXT_TRACED_ROUND {
            rounds.traced.push(wall);
            if rounds.traced.len() < TRACED_ROUNDS {
                NEXT_TRACED_ROUND
            } else {
                STOP
            }
        } else {
            rounds.measured.push(wall);
            if rounds.measured.len() == MIN_ROUNDS {
                rounds.rss_mb = peak_rss_mb();
            }
            let enough = rounds.measured.len() >= MIN_ROUNDS && secs(start) >= seconds;
            let exhausted = rounds.measured.len() >= MAX_ROUNDS;
            match (enough || exhausted, traced) {
                (false, _) => NEXT_ROUND,
                (true, true) => NEXT_TRACED_ROUND,
                (true, false) => STOP,
            }
        };
        state.store(next, Ordering::SeqCst);
        barrier.wait();
        if next == STOP {
            return rounds;
        }
    }
}

/// Runs the workload.
pub fn run(run: &mut Run, seed: u64, seconds: f64, traced: bool) {
    if let Err(e) = std::fs::create_dir_all("perfbench/.run") {
        run.fail(format!("socket directory: {e}"));
        return;
    }
    // Set-up: server starts until a first ping is answered, each with a
    // seeded arrival phase (see `start`).
    let mut phase = SplitMix::new(seed, 7);
    let mut setups = Vec::new();
    for k in 0..SETUPS {
        let arrival = Duration::from_micros(5_000 + phase.below(5_000) as u64);
        match start(&socket_path(k), arrival) {
            Ok((server, conn, t)) => {
                setups.push(t);
                drop(conn);
                drop(server);
            }
            Err(e) => {
                run.fail(format!("server start: {e}"));
                return;
            }
        }
    }
    let streams: Vec<Vec<ServeRequest>> = (0..CLIENTS)
        .map(|c| inputs::serve_stream(seed, c, MAX_ROUNDS + TRACED_ROUNDS))
        .collect();
    let (server, conn, _) = match start(&socket_path(SETUPS), Duration::ZERO) {
        Ok(s) => s,
        Err(e) => {
            run.fail(format!("server start: {e}"));
            return;
        }
    };
    let Some(addr) = server.http_addr() else {
        run.fail("server has no HTTP address");
        return;
    };
    let barrier = Barrier::new(CLIENTS + 1);
    let state = AtomicU8::new(NEXT_ROUND);
    let mut transports = vec![Transport::Ndjson(conn), Transport::Http(addr)];
    let (logs, rounds) = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .drain(..)
            .zip(&streams)
            .map(|(t, reqs)| {
                let (barrier, state) = (&barrier, &state);
                s.spawn(move || client(t, reqs, barrier, state))
            })
            .collect();
        let rounds = drive(&barrier, &state, seconds, traced);
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, rounds)
    });
    let stats = server.stats();
    drop(server);
    let _ = std::fs::remove_dir("perfbench/.run");

    // Every exchange must end in a `done`.
    let all = || {
        logs.iter().enumerate().flat_map(|(c, l)| {
            l.warmup
                .iter()
                .chain(&l.measured)
                .chain(&l.traced)
                .map(move |e| (c, e))
        })
    };
    let failed: Vec<_> = all().filter(|(_, e)| e.done.is_none()).collect();
    run.operations(all().count() as u64, failed.len() as u64);
    for (c, e) in failed.iter().take(5) {
        eprintln!("client {c} request {} failed: {:?}", e.index, e.error);
    }

    let measured: Vec<&Exchange> = logs.iter().flat_map(|l| &l.measured).collect();
    let latencies: Vec<f64> = measured.iter().map(|e| e.latency_ms).collect();
    let streaming = measured
        .iter()
        .filter(|e| e.first_event_ms.is_some())
        .count();
    let wall: f64 = rounds.measured.iter().sum();
    // Simulated seconds each round delivered, over the round's wall.
    let round_rates: Vec<f64> = rounds
        .measured
        .iter()
        .enumerate()
        .map(|(k, w)| {
            let delivered: usize = logs
                .iter()
                .zip(&streams)
                .flat_map(|(l, reqs)| {
                    l.measured[k * ROUND_REQUESTS..(k + 1) * ROUND_REQUESTS]
                        .iter()
                        .flat_map(move |e| &reqs[e.index].specs)
                        .map(|(_, spec)| spec.duration())
                })
                .sum();
            delivered as f64 / w
        })
        .collect();
    println!(
        "serve_mix: {} rounds ({} requests, {} streaming) in {wall:.1} s; p95 has {} samples \
         beyond it",
        rounds.measured.len(),
        latencies.len(),
        streaming,
        latencies.len() / 20
    );
    run.set("setup_s", median(&setups));
    run.set("time_to_solution_s", median(&rounds.measured));
    run.set("sim_s_per_host_s", median(&round_rates));
    run.set("request_ms_p50", median(&latencies));
    run.set("request_ms_p95", quantile(&latencies, 0.95));
    run.set(
        "requests_per_s",
        (CLIENTS * ROUND_REQUESTS) as f64 / median(&rounds.measured),
    );
    run.set("peak_rss_mb", rounds.rss_mb.unwrap_or(0.0));

    // Served `done` payloads must be byte-identical to an offline run of
    // the same specs.
    let mut distinct: Vec<ScenarioSpec> = Vec::new();
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    for (c, e) in all() {
        for (_, spec) in &streams[c][e.index].specs {
            slot_of.entry(spec.fingerprint()).or_insert_with(|| {
                distinct.push(spec.clone());
                distinct.len() - 1
            });
        }
    }
    let mut build_ms = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    for spec in &distinct {
        let (built, b) = timed(|| spec.build());
        build_ms.push(b * 1e3);
        match built {
            Ok(s) => scenarios.push(s),
            Err(e) => {
                run.fail(format!("offline build of {}: {e}", spec.display_label()));
                return;
            }
        }
    }
    let runner = BatchRunner::new(threads());
    let offline = runner.run_scenarios(&scenarios);
    let slots: Vec<Json> = scenarios
        .iter()
        .zip(&offline.slots)
        .map(|(s, r)| slot_json(&s.label(), s.spec().fingerprint(), r))
        .collect();
    for o in offline.outcomes() {
        let m = &o.metrics;
        let peak_c = m.peak_temperature.to_celsius().0;
        // The paper's claim holds for fuzzy flow control only: the
        // optimizer's fixed-flow designs may breach the threshold.
        let fuzzy = scenarios[o.index].spec().policy_kind() == PolicyKind::LcFuzzy;
        run.check(
            peak_c > 27.0
                && (peak_c < 85.0 || !fuzzy)
                && m.chip_energy > 0.0
                && m.pump_energy > 0.0,
            || {
                format!(
                    "{} implausible: peak {peak_c} °C, chip {} J, pump {} J",
                    scenarios[o.index].label(),
                    m.chip_energy,
                    m.pump_energy
                )
            },
        );
    }
    run.check(offline.all_ok(), || "an offline slot failed".into());
    let mut mismatches = 0;
    for (c, e) in all() {
        let Some(done) = &e.done else { continue };
        let req = &streams[c][e.index];
        let expected = done_event(Some(&req.id), request_slots(req, &slots, &slot_of)).encode();
        if *done != expected {
            mismatches += 1;
        }
        run.check(*done == expected, || {
            format!("served done of {} differs from the offline run", req.id)
        });
    }
    println!(
        "served done payloads byte-identical to the offline run: {} of {}",
        all().filter(|(_, e)| e.done.is_some()).count() - mismatches,
        all().filter(|(_, e)| e.done.is_some()).count()
    );

    if traced {
        // The study level: a batch of the first distinct served specs
        // (every one of them would cost a solo run each below).
        let subset = &scenarios[..scenarios.len().min(STUDY_SLOTS)];
        let table = Arc::new(Mutex::new(vec![None; subset.len()]));
        let t_study = Instant::now();
        let (batch, _) = runner.run_scenarios_observed(subset, |i, _| SlotClock::new(i, &table));
        let study_s = secs(t_study);
        let spans: Vec<f64> = table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .flatten()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        run.set("scenario.build_ms", median(&build_ms));
        run.set("study.wall_s", study_s);
        run.set("study.slots", batch.len() as f64);
        run.set("study.pattern_groups", batch.pattern_groups as f64);
        run.set(
            "study.full_factorizations",
            batch.total_full_factorizations() as f64,
        );
        run.set(
            "study.retried_slots",
            batch
                .outcomes()
                .iter()
                .filter(|o| !o.recovery.clean())
                .count() as f64,
        );
        run.set("study.failed_slots", batch.errors().len() as f64);
        let threads = runner.threads() as f64;
        layers::attribution(
            run,
            "study",
            spans.iter().sum::<f64>() / (threads * study_s),
        );
        let solo: f64 = subset.iter().map(|s| timed(|| s.run()).1).sum();
        run.set("study.thread_efficiency", solo / (threads * study_s));
        let stats_sum = layers::sum_stats(batch.outcomes().iter().map(|o| &o.solver));
        // Exact-count self-test: an untraced batch of the same specs
        // repeats the study and solver counts.
        let again = runner.run_scenarios(subset);
        let counts = |b: &cmosaic::batch::BatchReport| {
            (
                b.len(),
                b.pattern_groups,
                b.total_full_factorizations(),
                b.errors().len(),
                layers::sum_stats(b.outcomes().iter().map(|o| &o.solver)),
            )
        };
        run.check(counts(&batch) == counts(&again), || {
            format!(
                "study/solver counts did not repeat: {:?} then {:?}",
                counts(&batch),
                counts(&again)
            )
        });

        let c = &stats.cache;
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        run.set(
            "serve.result_cache_hit_ratio",
            ratio(c.result_hits, c.result_misses),
        );
        run.set(
            "serve.analysis_reuse_ratio",
            ratio(c.analysis_hits, c.analysis_misses),
        );
        run.set(
            "serve.slots_per_batch",
            c.scenarios as f64 / c.batches.max(1) as f64,
        );
        run.set("serve.failed_requests", failed.len() as f64);
        trace(
            run, seed, &logs, &streams, &slots, &slot_of, &rounds, &stats_sum,
        );
    }
}

/// The traced part below the request level.
#[allow(clippy::too_many_arguments)]
fn trace(
    run: &mut Run,
    seed: u64,
    logs: &[ClientLog],
    streams: &[Vec<ServeRequest>],
    slots: &[Json],
    slot_of: &HashMap<u64, usize>,
    rounds: &Rounds,
    stats: &cmosaic::thermal::SolverStats,
) {
    run.not_exercised(&[
        "optimize.evaluations",
        "optimize.eval_requests",
        "optimize.memo_hit_rate",
        "optimize.early_abort_savings",
        "optimize.wall_s",
        "twophase.steady_ms_p50",
    ]);
    run.set(
        "trace.overhead_ratio",
        median(&rounds.traced) / median(&rounds.measured),
    );
    let recorded: usize = logs.iter().flat_map(|l| &l.traced).map(|e| e.events).sum();
    run.check(recorded > 0, || "traced rounds recorded no events".into());

    // Serve level: parse and encode per request, and the cold requests'
    // latency against an offline replay of the same specs.
    let mut parse_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut share = Vec::new();
    for (log, reqs) in logs.iter().zip(streams) {
        for e in &log.measured {
            let req = &reqs[e.index];
            let wire = req.wire();
            let (parsed, p) = timed(|| Json::parse(&wire).map(|v| Request::parse(&v)));
            run.check(matches!(parsed, Ok(Ok(Request::Run { .. }))), || {
                format!("request {} does not parse", req.id)
            });
            let (line, enc) =
                timed(|| done_event(Some(&req.id), request_slots(req, slots, slot_of)).encode());
            std::hint::black_box(line);
            parse_us.push(p * 1e6);
            encode_us.push(enc * 1e6);
            if req.class == RequestClass::Cold {
                let (ran, offline) = timed(|| {
                    req.specs
                        .iter()
                        .map(|(_, spec)| spec.build())
                        .collect::<Result<Vec<Scenario>, _>>()
                        .map(|s| BatchRunner::new(1).run_scenarios(&s))
                });
                if ran.is_err() {
                    run.fail(format!("offline replay of {} failed", req.id));
                    continue;
                }
                overhead_ms.push(e.latency_ms - offline * 1e3);
                share.push((p + offline + enc) * 1e3 / e.latency_ms);
            }
        }
    }
    let first: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.measured)
        .filter_map(|e| e.first_event_ms)
        .collect();
    run.set("serve.first_event_ms_p50", median(&first));
    run.set("serve.parse_us", median(&parse_us));
    run.set("serve.encode_us", median(&encode_us));
    run.set("serve.overhead_ms_p50", median(&overhead_ms));
    layers::attribution(run, "serve_request", median(&share));

    // Below the request: the largest request shape, replayed.
    match inputs::serve_representative(seed).build() {
        Ok(scenario) => {
            layers::trace_scenario(run, &scenario, stats, false);
        }
        Err(e) => run.fail(format!("representative build: {e}")),
    }
}
