//! Codec throughput on the E2 path: E2AP PDUs and E2SM-KPM payloads
//! carrying MobiFlow telemetry as fixed-layout binary records, measured next
//! to the semicolon line codec that the same records take at the LLM-prompt
//! boundary (and took over E2 before the binary wire format).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use xsec_e2::{E2apPdu, KpmIndication, RicRequestId, RAN_FUNCTION_MOBIFLOW};
use xsec_mobiflow::{decode_ue_record, encode_ue_record, UeMobiFlow};
use xsec_proto::{Direction, MessageKind};
use xsec_types::{CellId, Rnti, Timestamp};

fn record(id: u64) -> UeMobiFlow {
    UeMobiFlow {
        msg_id: id,
        timestamp: Timestamp(id * 700),
        cell: CellId(1),
        rnti: Rnti(0x4601 + (id % 64) as u16),
        du_ue_id: (id % 64) as u32,
        direction: if id.is_multiple_of(2) { Direction::Uplink } else { Direction::Downlink },
        msg: MessageKind::ALL[(id as usize) % MessageKind::ALL.len()],
        tmsi: id.is_multiple_of(3).then_some(xsec_types::Tmsi(id as u32)),
        supi: None,
        cipher_alg: None,
        integrity_alg: None,
        establishment_cause: None,
        release_cause: None,
    }
}

fn indication_with(n: u64) -> E2apPdu {
    let records: Vec<UeMobiFlow> = (0..n).map(record).collect();
    let kpm = KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(100_000), &records);
    E2apPdu::Indication {
        request_id: RicRequestId { requestor: 1, instance: 1 },
        ran_function: RAN_FUNCTION_MOBIFLOW,
        sequence: 0,
        payload: kpm.encode(),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_codec");
    for n in [10u64, 100, 1000] {
        let pdu = indication_with(n);
        let bytes = pdu.encode();
        let records: Vec<UeMobiFlow> = (0..n).map(record).collect();
        let lines: Vec<String> = records.iter().map(encode_ue_record).collect();
        group.throughput(Throughput::Elements(n));
        group.bench_function(format!("encode_kpm_payload_{n}_records"), |b| {
            b.iter(|| {
                KpmIndication::encode_records(CellId(1), Timestamp(0), Timestamp(100_000), &records)
            })
        });
        group.bench_function(format!("encode_semicolon_lines_{n}_records"), |b| {
            b.iter(|| records.iter().map(encode_ue_record).collect::<Vec<_>>())
        });
        group.bench_function(format!("decode_semicolon_lines_{n}_records"), |b| {
            b.iter(|| lines.iter().map(|l| decode_ue_record(l).unwrap()).collect::<Vec<_>>())
        });
        group.bench_function(format!("encode_indication_{n}_records"), |b| {
            b.iter(|| pdu.encode())
        });
        group.bench_function(format!("decode_indication_{n}_records"), |b| {
            b.iter(|| E2apPdu::decode(&bytes).unwrap())
        });
        group.bench_function(format!("decode_kpm_payload_{n}_records"), |b| {
            let E2apPdu::Indication { payload, .. } = &pdu else { unreachable!() };
            b.iter_batched(
                || payload.clone(),
                |p| KpmIndication::decode(&p).unwrap().into_records(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
