//! Replays of a traced run's own data through the public codec and log
//! APIs, timing the wire codec and the stable log in isolation.

use dvp_core::record::SiteRecord;
use dvp_core::SiteNode;
use dvp_storage::StableLog;
use dvp_vmsg::WireDatagram;
use std::hint::black_box;
use std::time::Instant;

/// Codec cost per datagram, ns.
pub struct CodecTimes {
    /// `WireDatagram::decode`.
    pub decode_ns: f64,
    /// `WireDatagram::encode_with_hints` of the decoded frames and hints.
    pub encode_ns: f64,
}

/// Decode every captured datagram, re-encode it, and check the re-encoded
/// wire image equals the original.
pub fn codec(datagrams: &[WireDatagram]) -> Result<CodecTimes, String> {
    if datagrams.is_empty() {
        return Ok(CodecTimes {
            decode_ns: 0.0,
            encode_ns: 0.0,
        });
    }
    let n = datagrams.len() as f64;
    let t = Instant::now();
    let decoded: Vec<_> = datagrams.iter().map(|d| black_box(d.decode())).collect();
    let decode_ns = t.elapsed().as_nanos() as f64 / n;
    let t = Instant::now();
    let encoded: Vec<_> = decoded
        .iter()
        .map(|d| black_box(WireDatagram::encode_with_hints(d.id, &d.frames, &d.hints)))
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64 / n;
    if let Some(i) = (0..datagrams.len()).find(|&i| encoded[i].to_vec() != datagrams[i].to_vec()) {
        return Err(format!("codec replay: datagram {i} re-encoded differently"));
    }
    Ok(CodecTimes {
        decode_ns,
        encode_ns,
    })
}

/// Stable-log cost, ns.
pub struct StorageTimes {
    /// Per `StableLog::append`.
    pub append_ns: f64,
    /// Per `StableLog::force`.
    pub force_ns: f64,
    /// `StableLog::recover_entries`, per record recovered.
    pub recover_ns_per_record: f64,
}

/// Re-log each site's stable records into a fresh `StableLog`, forcing
/// every `records_per_force` appends as the run did on average, then
/// recover them and check the recovered records equal the originals.
pub fn storage(sites: &[SiteNode], records_per_force: f64) -> Result<StorageTimes, String> {
    let batch = (records_per_force.round() as usize).max(1);
    let (mut append_ns, mut force_ns, mut recover_ns) = (0u128, 0u128, 0u128);
    let (mut appends, mut forces) = (0u64, 0u64);
    for site in sites {
        let records: Vec<SiteRecord> = site
            .log()
            .stable_records()
            .map(|(_, r)| r.clone())
            .collect();
        let mut log = StableLog::<SiteRecord>::new();
        for chunk in records.chunks(batch) {
            let owned = chunk.to_vec();
            let t = Instant::now();
            for r in owned {
                log.append(r);
            }
            append_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            log.force();
            force_ns += t.elapsed().as_nanos();
            appends += chunk.len() as u64;
            forces += 1;
        }
        let t = Instant::now();
        let recovered = black_box(log.recover_entries())
            .map_err(|e| format!("storage replay: site {}: {e:?}", site.id()))?;
        recover_ns += t.elapsed().as_nanos();
        if recovered.len() != records.len()
            || recovered.iter().zip(&records).any(|((_, a), b)| a != b)
        {
            return Err(format!(
                "storage replay: site {} recovered records differ",
                site.id()
            ));
        }
    }
    let per = |ns: u128, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    Ok(StorageTimes {
        append_ns: per(append_ns, appends),
        force_ns: per(force_ns, forces),
        recover_ns_per_record: per(recover_ns, appends),
    })
}
