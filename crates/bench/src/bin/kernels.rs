//! The timing gate nothing else covers, and two report-only sections.
//! Every other perf number comes from the whole-stack benchmark
//! (`benchmark/`, `xsec-e2e`).
//!
//! 1. **Kernels** (report only) — a raw GEMM, the autoencoder's first
//!    layer over the windows' nonzero lists, the batched scoring
//!    workloads, and the LSTM's deployed path (a stream through
//!    `MobiWatch`); their end-to-end readings are `xsec-e2e`'s
//!    `dl.score.batched_ns_per_window`, `steady` `records_per_s` and
//!    `tcp_paced` `bucket_p90_us`.
//! 2. **Training** (report only) — the SMO's refit (training steps at the
//!    deployed shapes); its end-to-end reading is `xsec-e2e`'s `setup_s`.
//! 3. **RIC reactor scale** — one platform terminating 8/64/256 in-proc
//!    agents, mostly-idle vs all-active, as µs per agent-round; CI gates
//!    the 256-vs-8 mostly-idle ratio at >= 0.5.
//!
//! Results go to stdout, `target/experiments/kernels.txt`, and
//! `BENCH_kernels.json` in the working directory (consumed by CI).

use serde_json::json;
use sixg_xsec::smo::{DeployedModels, Smo, TrainingConfig};
use sixg_xsec::{Detector, MobiWatch, MobiWatchConfig};
use std::time::Instant;
use xsec_attacks::DatasetBuilder;
use xsec_bench::{quick_mode, save_report};
use xsec_dl::{
    Autoencoder, AutoencoderConfig, FeatureConfig, Featurizer, Lstm, LstmConfig, Matrix,
    SparseRows, Workspace,
};
use xsec_e2::{in_proc_pair, InProcTransport, RicAgent, RicAgentConfig};
use xsec_mobiflow::{extract_from_events, TelemetryStream, UeMobiFlow};
use xsec_proto::{Direction, MessageKind};
use xsec_ric::{ControlOut, Grants, RicPlatform, SubscriptionSpec, XApp, XAppContext};
use xsec_types::{CellId, Duration, GnbId, Rnti, Timestamp};

/// Runs `f` until `min_secs` of wall clock have elapsed; returns
/// (iterations, elapsed seconds). Always runs at least once.
fn time_loop(min_secs: f64, mut f: impl FnMut()) -> (u64, f64) {
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return (iters, elapsed);
        }
    }
}

/// Trained models plus a fresh benign stream to score.
fn train(quick: bool) -> (DeployedModels, TelemetryStream) {
    let sessions = if quick { 12 } else { 25 };
    let benign = DatasetBuilder::small(1, sessions).benign();
    let train_stream = extract_from_events(&benign.events);
    let models = Smo::train(
        &TrainingConfig {
            autoencoder_epochs: if quick { 10 } else { 25 },
            lstm_epochs: if quick { 2 } else { 4 },
            autoencoder_hidden: vec![48, 12],
            lstm_hidden: 24,
            ..TrainingConfig::default()
        },
        &train_stream,
    )
    .expect("training succeeds");
    let eval = DatasetBuilder::small(2, sessions).benign();
    (models, extract_from_events(&eval.events))
}

/// Records per indication in the `lstm_stream` rate: `steady`'s E2 report.
const STREAM_INDICATION: usize = 240;

/// Kernel-level microbenches: a raw GEMM, the real batched scoring
/// workloads and the LSTM's deployed path.
fn kernels_section(
    models: &DeployedModels,
    stream: &TelemetryStream,
    min_secs: f64,
    text: &mut String,
) -> serde_json::Value {
    let feature_config = FeatureConfig { window: models.feature_config.window };
    let dataset = Featurizer::encode_stream(&feature_config, stream);
    let flat = dataset.flat_windows();
    let rows = flat.rows();
    let (windows, nexts) = dataset.lstm_pairs();
    let pairs = windows.len();
    let mut ws = Workspace::new();

    // Raw dense GEMM at the AE first-layer shape (64-window batch).
    let (m, k, n) = (64usize, 264, 48);
    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| ((i * 37) % 97) as f32 * 0.01 - 0.48).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i * 53) % 89) as f32 * 0.01 - 0.44).collect());
    let mut out = Matrix::default();
    let (iters, secs) = time_loop(min_secs, || {
        std::hint::black_box(a.matmul_into(&b, &mut out));
    });
    let gemm_gflops = (iters as f64 * 2.0 * (m * k * n) as f64) / secs / 1e9;

    // The autoencoder's first layer as the live path runs it: the eval
    // windows' nonzero lists against a 264×48 weight block.
    let mut lists = SparseRows::default();
    lists.push_dense([flat.data()], flat.cols());
    let mut first = vec![0.0f32; rows * n];
    let (iters, secs) = time_loop(min_secs, || {
        xsec_dl::kernels::sparse_gemm_acc(lists.iter(), b.data(), n, &mut first);
        std::hint::black_box(&first);
    });
    let first_layer_ns = secs * 1e9 / (iters * rows as u64) as f64;
    let nonzeros = lists.iter().map(<[_]>::len).sum::<usize>() as f64 / rows as f64;

    let (iters, secs) = time_loop(min_secs, || {
        std::hint::black_box(models.autoencoder.score_rows(&flat, &mut ws));
    });
    let ae_rate = (iters * rows as u64) as f64 / secs;
    let (iters, secs) = time_loop(min_secs, || {
        std::hint::black_box(models.lstm.score_batch(&windows, &nexts, &mut ws));
    });
    let lstm_rate = (iters * pairs as u64) as f64 / secs;

    // The LSTM as deployed: the eval stream through `MobiWatch` in
    // 240-record indications, where each record's gate base is projected
    // once and reused by the windows it enters — which `score_batch` over
    // independent windows cannot show. Featurizing and judging included.
    let config = MobiWatchConfig { detector: Detector::Lstm, ..MobiWatchConfig::default() };
    let (mut watch, state) = MobiWatch::new(models.clone(), config);
    let (_, secs) = time_loop(min_secs, || {
        for indication in stream.records.chunks(STREAM_INDICATION) {
            std::hint::black_box(watch.process_batch(indication));
        }
    });
    let lstm_stream_windows = state.lock().scores.len();
    let lstm_stream_rate = lstm_stream_windows as f64 / secs;

    text.push_str(&format!(
        "Kernels:\n  \
         gemm {m}x{k}x{n}:  {gemm_gflops:>6.2} GFLOP/s\n  \
         AE first layer {k}->{n} over lists ({nonzeros:.1} nonzeros/window): \
         {first_layer_ns:>6.1} ns/window\n  \
         autoencoder: {ae_rate:>12.0} windows/s\n  \
         lstm:        {lstm_rate:>12.0} windows/s\n  \
         lstm stream: {lstm_stream_rate:>12.0} windows/s \
         (MobiWatch, {STREAM_INDICATION}-record indications)\n\n",
    ));
    json!({
        "gemm": { "shape": [m, k, n], "gflops": gemm_gflops },
        "ae_first_layer_sparse": {
            "shape": [k, n],
            "nonzeros_per_window": nonzeros,
            "ns_per_window": first_layer_ns,
        },
        "autoencoder": { "windows": rows, "windows_per_sec": ae_rate },
        "lstm": { "windows": pairs, "windows_per_sec": lstm_rate },
        "lstm_stream": {
            "records_per_indication": STREAM_INDICATION,
            "windows_scored": lstm_stream_windows,
            "windows_per_sec": lstm_stream_rate,
        },
    })
}

/// What a refit costs, at the shapes `xsec-e2e` deploys (AE `[48, 12]` at
/// batch 32, LSTM 24 one window per step) on the eval stream's windows: the
/// AE per batch-32 step, the LSTM per window, Adam per parameter. Report only: the number that is judged
/// is the whole-stack `setup_s`, and what training produces is pinned by
/// `smo::tests::trained_models_are_bit_stable` (DESIGN.md § "The training
/// path").
fn training_section(
    models: &DeployedModels,
    stream: &TelemetryStream,
    min_secs: f64,
    text: &mut String,
) -> serde_json::Value {
    const BATCH: usize = 32;
    const EPOCHS: usize = 4;
    let dataset = Featurizer::encode_stream(&models.feature_config, stream);
    let flat = dataset.flat_windows();
    // Whole batches only, so a step is a batch-32 step.
    let flat = flat.slice_rows(0, flat.rows() - flat.rows() % BATCH);
    let (windows, nexts) = dataset.lstm_pairs();

    let ae_config = AutoencoderConfig {
        hidden: vec![48, 12],
        epochs: EPOCHS,
        batch_size: BATCH,
        ..AutoencoderConfig::for_input(flat.cols())
    };
    let (runs, secs) = time_loop(min_secs, || {
        std::hint::black_box(Autoencoder::train(ae_config.clone(), &flat));
    });
    let ae_step_us = secs * 1e6 / (runs as usize * EPOCHS * flat.rows() / BATCH) as f64;

    let lstm_config =
        LstmConfig { hidden: 24, epochs: EPOCHS, ..LstmConfig::for_input(windows[0].cols()) };
    let (runs, secs) = time_loop(min_secs, || {
        std::hint::black_box(Lstm::train(lstm_config.clone(), &windows, &nexts));
    });
    let lstm_window_us = secs * 1e6 / (runs as usize * EPOCHS * windows.len()) as f64;

    // The AE's widest layer's worth of parameters, gradients about the size
    // training sees; `t` keeps counting so no step is a repeat.
    let n = flat.cols() * 48;
    let mut param: Vec<f32> = (0..n).map(|i| ((i * 37) % 97) as f32 * 0.01 - 0.48).collect();
    let grad: Vec<f32> = (0..n).map(|i| ((i * 53) % 89) as f32 * 1e-4 - 0.0044).collect();
    let (mut m, mut v, mut t) = (vec![0.0f32; n], vec![0.0f32; n], 0u64);
    let (iters, secs) = time_loop(min_secs, || {
        t += 1;
        xsec_dl::dense::adam_update(&mut param, &grad, &mut m, &mut v, t, 1e-3);
    });
    std::hint::black_box(&param);
    let adam_ns = secs * 1e9 / (iters as usize * n) as f64;

    text.push_str(&format!(
        "Training (report only; AE [48,12] batch {BATCH}, LSTM 24, {} windows):\n  \
         autoencoder: {ae_step_us:>8.1} us per batch-{BATCH} step\n  \
         lstm:        {lstm_window_us:>8.1} us per window\n  \
         adam:        {adam_ns:>8.2} ns per parameter\n\n",
        flat.rows(),
    ));
    json!({
        "windows": flat.rows(),
        "autoencoder_us_per_batch32_step": ae_step_us,
        "lstm_us_per_window": lstm_window_us,
        "adam_ns_per_parameter": adam_ns,
    })
}

/// An xApp that answers every delivered record with a Control Request
/// pinned back to the record's cell — the minimal closed loop, so the
/// scale bench exercises the full indication → control → ack chain
/// without model inference in the way.
struct EchoController;

impl XApp for EchoController {
    fn name(&self) -> &str {
        "echo-controller"
    }

    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        for record in records {
            ctx.send_control(
                "*",
                ControlOut { cell: Some(record.cell), payload: vec![0xEC], ..Default::default() },
            );
        }
    }
}

/// One RIC terminating `agents` in-proc E2 connections, with either one
/// active telemetry source (`mostly-idle`) or all of them (`all-active`).
struct ScaleRig {
    platform: RicPlatform,
    agents: Vec<RicAgent<InProcTransport>>,
    active: usize,
    now: Timestamp,
    next_msg: u64,
}

const SCALE_PERIOD_MS: u32 = 10;

impl ScaleRig {
    fn new(agents: usize, active: usize) -> Self {
        let mut platform = RicPlatform::new();
        let mut ric_agents = Vec::with_capacity(agents);
        for i in 0..agents {
            let (agent_end, ric_end) = in_proc_pair();
            let agent = RicAgent::new(
                RicAgentConfig { gnb_id: GnbId(i as u32 + 1), cell: CellId(i as u32 + 1) },
                agent_end,
            )
            .expect("agent starts");
            platform.add_agent(Box::new(ric_end));
            ric_agents.push(agent);
        }
        // The echo payload is opaque, so it declares kind `*` and holds the
        // wildcard control grant — and nothing else.
        platform
            .register_xapp_scoped(
                Box::new(EchoController),
                SubscriptionSpec::telemetry(SCALE_PERIOD_MS),
                Grants::none().control_all(),
            )
            .expect("register echo controller");
        platform.seal();
        let mut rig = ScaleRig {
            platform,
            agents: ric_agents,
            active,
            now: Timestamp::ZERO,
            next_msg: 0,
        };
        // E2 setup + subscription handshake, all agents in lockstep.
        for _ in 0..3 {
            rig.platform.pump().expect("pump");
            for agent in &mut rig.agents {
                agent.poll(rig.now).expect("agent poll");
            }
        }
        assert!(rig.agents.iter().all(|a| a.is_setup()), "handshake incomplete");
        rig
    }

    /// One report period: active agents log a record and flush their
    /// indication, the platform turns each record into a control, and the
    /// ack flows back. Idle agents are never touched — the reactor's
    /// ready-queue is what keeps them off the pump's critical path.
    fn round(&mut self) {
        self.now += Duration::from_millis(u64::from(SCALE_PERIOD_MS));
        for i in 0..self.active {
            self.next_msg += 1;
            let record = UeMobiFlow {
                msg_id: self.next_msg,
                timestamp: self.now,
                cell: CellId(i as u32 + 1),
                rnti: Rnti(1),
                du_ue_id: 1,
                direction: Direction::Uplink,
                msg: MessageKind::RrcSetupRequest,
                tmsi: None,
                supi: None,
                cipher_alg: None,
                integrity_alg: None,
                establishment_cause: None,
                release_cause: None,
            };
            self.agents[i].push_record(record);
            self.agents[i].poll(self.now).expect("agent poll");
        }
        // Deliver indications + ship controls, let agents ack, reap acks.
        self.platform.pump().expect("pump");
        for i in 0..self.active {
            self.agents[i].poll(self.now).expect("agent poll");
        }
        self.platform.pump().expect("pump");
    }
}

/// Reactor scale: one platform terminating 8/64/256 agents, mostly-idle
/// (one telemetry source) vs all-active, as µs per agent-round (one agent's
/// indication -> control -> ack) plus the send→ack latency tail. The
/// mostly-idle rows are the O(active) timing: per-round cost must not grow
/// with the number of idle agents. The deterministic half — idle conns are
/// not scanned, every control is acked, nothing is dropped — is asserted by
/// `platform::tests::idle_connections_are_not_scanned` and
/// `integration_ric_scale`; here it only guards the timing's validity.
fn ric_scale_section(min_secs: f64, text: &mut String) -> serde_json::Value {
    text.push_str("RIC reactor scale (full indication -> control -> ack rounds):\n");
    let mut configs = Vec::new();
    let mut idle_us = std::collections::HashMap::new();
    for &agents in &[8usize, 64, 256] {
        for (mode, active) in [("mostly-idle", 1usize), ("all-active", agents)] {
            let mut rig = ScaleRig::new(agents, active);
            // Warmup: let queues and histograms reach steady state.
            for _ in 0..16 {
                rig.round();
            }
            let acked0 = rig.platform.controls_acked();
            let (rounds, secs) = time_loop(min_secs, || rig.round());
            let dropped = rig.platform.egress_dropped()
                + rig.agents.iter().map(|a| a.egress_dropped()).sum::<u64>();
            assert_eq!(
                (rig.platform.controls_acked() - acked0, rig.platform.controls_failed(), dropped),
                (rounds * active as u64, 0, 0),
                "{agents} agents {mode}: (acked, failed, dropped) — the timed rounds did not all complete",
            );
            let us_per_agent_round = secs * 1e6 / (rounds * active as u64) as f64;
            let ack =
                rig.platform.obs().snapshot().histogram_merged("xsec_ric_control_ack_latency_us");
            let (p50, p99) = (ack.p50, ack.p99);
            if mode == "mostly-idle" {
                idle_us.insert(agents, us_per_agent_round);
            }
            text.push_str(&format!(
                "  {agents:>3} agents {mode:<11} {us_per_agent_round:>7.2} µs/agent-round  \
                 ack p50={p50:.0}µs p99={p99:.0}µs\n",
            ));
            configs.push(json!({
                "agents": agents,
                "mode": mode,
                "active": active,
                "us_per_agent_round": us_per_agent_round,
                "ack_p50_us": p50,
                "ack_p99_us": p99,
            }));
        }
    }
    let idle_scaling = idle_us[&8] / idle_us[&256];
    text.push_str(&format!(
        "  mostly-idle rate at 256 vs 8 agents: {idle_scaling:.2}x  (reactor O(active) target >= 0.5x)\n\n",
    ));
    json!({ "configs": configs, "idle_scaling_256_vs_8": idle_scaling })
}

fn main() {
    let quick = quick_mode();
    let min_secs = if quick { 0.2 } else { 0.8 };
    eprintln!("kernels: training models (quick={quick})");
    let (models, eval_stream) = train(quick);

    let mut text = String::from("Kernel rates and the reactor-scale timing gate\n==============================================\n\n");
    let kernels = kernels_section(&models, &eval_stream, min_secs, &mut text);
    let training = training_section(&models, &eval_stream, min_secs, &mut text);
    let ric_scale = ric_scale_section(min_secs, &mut text);

    let report = json!({
        "quick": quick,
        "cores": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "kernels": kernels,
        "training": training,
        "ric_scale": ric_scale,
    });
    std::fs::write("BENCH_kernels.json", serde_json::to_string(&report).expect("report serializes"))
        .expect("write BENCH_kernels.json");
    text.push_str("Wrote BENCH_kernels.json\n");

    print!("{text}");
    save_report("kernels", &text);
}
