//! End-to-end tests of the released command-line tools, invoked as real
//! subprocesses (Cargo builds the bins for integration tests and exposes
//! their paths via `CARGO_BIN_EXE_*`).

use std::process::Command;

fn dfixer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dfixer"))
}

fn zreplicator() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zreplicator"))
}

#[test]
fn dfixer_lists_all_47_codes() {
    let out = dfixer().arg("--list-errors").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 47);
    assert!(text.contains("Nsec3IterationsNonzero"));
    assert!(text.contains("(unreplicable)"));
}

#[test]
fn dfixer_auto_fixes_and_exits_zero() {
    let out = dfixer()
        .args(["--errors", "RrsigExpired", "--auto"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("status sb"), "{text}");
    assert!(text.contains("RrsigExpired"));
    assert!(text.contains("fixed=true"));
    assert!(text.contains("final status=sv"));
}

#[test]
fn dfixer_rejects_unknown_code() {
    let out = dfixer().args(["--errors", "NotACode"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown error code"));
}

#[test]
fn dfixer_json_output_parses() {
    let out = dfixer()
        .args(["--errors", "DsDigestInvalid", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: ddx_json::Value = ddx_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["status"], "Sb");
    assert!(v["zones"].as_array().unwrap().len() >= 3);
}

#[test]
fn zreplicator_replicates_and_dumps_zones() {
    let dir = std::env::temp_dir().join("ddx_cli_dump");
    let dir_s = dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let out = zreplicator()
        .args(["--errors", "RrsigMissing", "--dump-dir", dir_s])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IE ⊆ GE  : true"), "{text}");
    // Six zone files (3 zones × 2 servers), each parseable master format.
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 6);
    for f in files {
        let content = std::fs::read_to_string(f.unwrap().path()).unwrap();
        let zone = ddx_dns::parse_master(&content).unwrap();
        assert!(zone.soa().is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dfixer_metrics_out_dumps_every_subsystem() {
    let path = std::env::temp_dir().join("ddx_cli_metrics.json");
    let path_s = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);
    let out = dfixer()
        .args([
            "--errors",
            "RrsigExpired",
            "--nsec3",
            "--auto",
            "--metrics-out",
            path_s,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The run report lands on stdout…
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== metrics"), "{text}");
    assert!(text.contains("| counter |"), "{text}");
    // …and the JSON dump round-trips into a MetricsSnapshot covering every
    // counter family the run exercised: the formerly bespoke stats surfaces
    // (SigCache, zone index) plus probe/grok/fixer.
    let json = std::fs::read_to_string(&path).unwrap();
    let snap = ddx_obs::MetricsSnapshot::from_json(&json).unwrap();
    for key in [
        "dnssec.sig_cache.misses",
        "server.zone_index.builds",
        "probe.queries.sent",
        "grok.runs",
        "fixer.iterations",
    ] {
        assert!(
            snap.counter(key) > 0,
            "counter {key} missing or zero in {json}"
        );
    }
    assert!(
        snap.histograms.contains_key("probe.walk_us"),
        "probe walk histogram missing"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zreplicator_fails_on_unreplicable_code() {
    let out = zreplicator()
        .args(["--errors", "Nsec3OwnerNotBase32"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "unreplicable code must fail replication"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("skipped"));
}
