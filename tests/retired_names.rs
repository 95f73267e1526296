//! Names that a change retired stay retired. A rule cites the DESIGN.md
//! section or ROADMAP item that retired its names and says what replaced
//! them. A guard runs the system's `grep -rn` from the repository root,
//! skipping only this file, and fails on a hit, on a count that moved, on
//! a witness line its own pattern does not match (a pattern that matches
//! nothing guards nothing), and on a `grep` that cannot run.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

type S = &'static str;

/// A rule's name with its citation, what replaced the names, and its guards.
struct Rule(S, S, &'static [Guard]);

enum Guard {
    /// `grep -rn <dialect> -e <pattern> <args>` prints exactly `lines`
    /// lines, and `pattern` matches the witness line. `args` are the
    /// paths walked and the directories skipped. The dialect is `-E`,
    /// save for two counts of a basic (`-G`) pattern.
    Grep(S, S, &'static [S], usize, S),
    /// The file does not exist.
    NoFile(S),
}
use Guard::{Grep, NoFile};

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule(r#"No capability latch on the wire (DESIGN.md §6, "replace, do not negotiate")"#, "the wire carries no per-peer capability state: replace the op, do not negotiate it", &[
        Grep("-E", r"(range|checked|combine)_supported|mux_state|demot|with_fallback", &["crates/net/src", "crates/store/src"], 0, "fn range_supported(&self) -> bool {"),
    ]),
    Rule("No runtime switch on the store (DESIGN.md §13, §16, §17)", "verify-on-read is always on, a stripe's repair path is chosen from peer_addr, admission is FrontConfig: no setter, no whole-disk event", &[
        Grep("-E", r"set_verify_reads|set_combined_repair|set_admission|DiskRebuilt", &["crates", "tests"], 0, "store.set_verify_reads(true);"),
    ]),
    Rule("One microbench driver, one report (ROADMAP item 7)", "micro <name> [--quick] is the one microbench driver and figures prints through the same report::Report: rows go to the Report, rules to the bench's check()", &[
        Grep("-E", r"fn json_f|no-json|assert-fairness|criterion_main|normal_table|normal_json|degraded_json|degraded_speed_table|degraded_cost_table", &["--exclude-dir=e2e", "crates/bench"], 0, "fn json_f(v: f64) -> String {"),
    ]),
    Rule("One submission path, one queue, one planner (ROADMAP item 9)", "ThreadedArray asks submits_async() in one function: submit(); one closable queue (ecfrm_util::Queue) under both pools, one Op, one planner (Scheme), no unsafe in par_map, the array reports the shape it dispatched", &[
        Grep("-G", r"submits_async()", &["crates/sim/src/threaded.rs"], 1, "if self.submits_async() {"),
        Grep("-E", r"SubmitQueue|QueueInner|JobQueue|OpKind|WideScheme|SendPtr|count_coalesced_runs", &["--exclude-dir=target", "crates"], 0, "struct SubmitQueue {"),
    ]),
    Rule("One reconstruction path (DESIGN.md §12, §16, ROADMAP item 12)", "a lost element is rebuilt by Scheme::reconstruct from the Scheme's one DecoderCache: no second decoder, no opt-in cache, no store-owned cache; Scheme::helpers is the one place a lost element's helpers are picked from the code's repair spec", &[
        Grep("-E", r"rebuild_one|with_cache|decoder_cache", &["--exclude-dir=e2e", "crates"], 0, "fn rebuild_one(&self, lost: usize) -> Vec<u8> {"),
        Grep("-G", r"repair_spec(", &["crates/core/src"], 1, "let spec = self.code.repair_spec(lost);"),
    ]),
    Rule("One record per lost disk (DESIGN.md §12, ROADMAP item 8)", "a lost disk's rebuild is one Rebuilding row of the store's DiskTable; no scratch buffer pool; combine answers Result<CombineReply, String>", &[
        Grep("-E", r"QueueState|ActiveRepair|given_up|drain_hints|retain_hint_disks|pending_for|abandoned_for|done_for|RepairKey|bufpool|CombineOutcome", &["--exclude-dir=e2e", "crates"], 0, "struct ActiveRepair {"),
    ]),
    Rule("One record per disk (DESIGN.md §12, ROADMAP item 4(a))", "whether a disk is up, suspect, failed, rebuilding or given up on is one row of the store's DiskTable: no suspect set on the array, no panic hook on the reactor, no failed set in StripeState, no fail/heal on a backend or on the wire (a test fails a disk's I/O with a FaultyDisk)", &[
        Grep("-E", r"mark_suspect|clear_suspect|fn suspects\b|panic_hook|array\.suspects", &["--exclude-dir=e2e", "crates"], 0, "pub fn mark_suspect(&self, disk: usize) {"),
        Grep("-E", r"^\s*(pub(\([a-z]+\))? )?failed:", &["crates/store/src/store/mod.rs"], 0, "    pub(crate) failed: HashSet<usize>,"),
        Grep("-E", r"fn fail\(&self\)|fn heal\(&self\)|failed: AtomicBool|Fault::(Fail|Heal)|InjectFault|FaultInjected", &["--exclude-dir=e2e", "crates"], 0, "fn fail(&self) {"),
    ]),
    Rule("One namespace (DESIGN.md §17, ROADMAP item 9)", "the store keeps no names: append returns an extent, read / read_extent take it back, FrontDoor is the only catalog (the deprecated ObjectStore::put shim stays only for the frozen e2e probe; workspace clippy -D warnings refuses any other caller of it)", &[
        Grep("-E", r#"get_with_stats|get_range\(|fn named\b|catalog:|\.meta\(""#, &["--exclude-dir=e2e", "crates", "src", "tests", "examples"], 0, "let (data, stats) = store.get_with_stats(name)?;"),
    ]),
    Rule("One way to make an object (DESIGN.md §17, ROADMAP items 20, 24)", "put is the one way to make an object: one step in process, one ObjPut frame on the wire; an object is one immutable extent, never appended to", &[
        Grep("-E", r"ObjCreate|OP_OBJ_CREATE|fn create\(", &["crates/net/src", "crates/store/src/front.rs"], 0, "Request::ObjCreate { tenant, name } => {"),
        Grep("-E", r"^\s*(pub(\([a-z]+\))? )?version:", &["crates/store/src/meta.rs"], 0, "    pub version: u64,"),
        Grep("-E", r"ObjWrite|OP_OBJ_WRITE|fn write\(&self|ExtentRecord|fn slices\(|\.extents\b|extents: (u32|usize)", &["crates/net/src", "crates/store/src"], 0, "Request::ObjWrite { tenant, name, offset, data } => {"),
    ]),
    Rule("One verifier (DESIGN.md §13)", "a shard ships each cell as stored and the store checks it once, where it is used: a Read carries no key, a Cells status is missing or stored (the deprecated RemoteDiskConfigBuilder::integrity_key no-op stays only for the frozen e2e stack; workspace clippy -D warnings refuses any other caller of it)", &[
        Grep("-E", r"CheckedElement|remote_verify_fails|read_corrupt|integrity_key:", &["crates/net/src", "crates/cli/src"], 0, "pub struct CheckedElement {"),
    ]),
    Rule("One connection per peer (ROADMAP item 16)", "every frame carries its id and every peer gets one connection: no pooled transport, no Mux envelope, no plain serve path", &[
        Grep("-E", r"mod pool|Pool::new|PeerPools|peer_pool|OP_MUX|RESP_MUX|Request::Mux|Response::Mux|write_mux_request|serve\.mux", &["--exclude-dir=e2e", "crates"], 0, "Request::Mux(frames) => {"),
    ]),
    Rule("Gauges are read at snapshot time, not pushed by reads (DESIGN.md §8)", "a layer's own counters reach the registry through one Recorder::observe source; a tenant without a rate is the only admission-off", &[
        Grep("-E", r"record_into|fold_net|net_folded|load_board|no.admission", &["--exclude-dir=e2e", "crates"], 0, "fn record_into(&self, registry: &Registry) {"),
    ]),
    Rule("The front door reads what was sealed (DESIGN.md §6, §14, §17)", "the cache holds immutable elements, a slow backend is a FaultyDisk, the wire speaks the array's combine types", &[
        Grep("-E", r"subscribe_stripes|StripeEvent|StripeListener|hot_avoided|MAX_AVOID_COST|disk_loads|DelayMs|read_delay_ms|repair_max_delay|CombinePeer\b", &["--exclude-dir=e2e", "crates"], 0, "pub fn subscribe_stripes(&self) -> StripeListener {"),
    ]),
    Rule(r#"A hit is written from the cache, and no frame is joined, zero-filled or copied out of (DESIGN.md §14, "Who copies a cell on its way to the tenant")"#, "a message encodes into Parts (borrowed buffers, one vectored write) and is read by Frame (body() into the Vec that is kept); an ObjGet reply is the front door's pieces", &[
        Grep("-E", r"fn payload\(|vec!\[0u8; len|struct Cursor", &["crates/net/src/protocol.rs"], 0, "fn payload(&self) -> Vec<u8> {"),
        Grep("-E", r"ObjData|read_range", &["crates/net/src/server.rs"], 0, "Response::ObjData(bytes) => {"),
    ]),
    Rule("The CLI acts on a deployment (ROADMAP item 4(b))", "the CLI's commands are plan, serve, stats and bench: the drills are tests and microbenches, and the kernel probe or ECFRM_FORCE_FILE_IO picks the file backend", &[
        Grep("-E", r#""(drill|scrub)" =>|"--file-io" =>|file_io_config"#, &["crates/cli"], 0, r#""drill" => ops::drill,"#),
    ]),
    Rule("One on-disk format (ROADMAP item 14)", "the store's cells, footers and merkle roots are the one on-disk format: no chunk directory, no second manifest", &[
        NoFile("crates/cli/src/manifest.rs"),
        Grep("-E", r"ecfrm-chunks|chunk_name|manifest\.txt|struct Manifest", &["--exclude-dir=target", "crates"], 0, "struct Manifest {"),
    ]),
    Rule("One field, GF(2^8) (DESIGN.md §10, ROADMAP item 19)", "GF(2^8) is the only arithmetic: no GF(2^16) field, region ops, kernels or wide-stripe code; kernel.rs has 9 unsafe sites: the SIMD kernels (two x86_64, one aarch64) and their six safe wrappers", &[
        Grep("-E", r"Gf16|region16|WideRs|mul16|split_tables16|dot_region16", &["--exclude-dir=target", "crates", "src", "examples", "tests"], 0, "pub struct Gf16(u16);"),
        Grep("-E", r"unsafe (fn|\{)", &["crates/gf/src/kernel.rs"], 9, "unsafe fn mul_add_avx2(c: u8, src: &[u8], dst: &mut [u8]) {"),
    ]),
];

/// Run `grep` from the repository root with `stdin` as its input.
fn grep(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new("grep")
        .args(args)
        .current_dir(ROOT)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn grep: the guards run the system's grep");
    let input = child.stdin.take().expect("grep's stdin is piped");
    (&input).write_all(stdin.as_bytes()).expect("feed grep");
    drop(input);
    child.wait_with_output().expect("wait for grep")
}

/// What is wrong with one guard, if anything.
fn fault(guard: &Guard) -> Option<String> {
    let (dialect, pattern, args, lines, witness) = match *guard {
        Grep(dialect, pattern, args, lines, witness) => (dialect, pattern, args, lines, witness),
        NoFile(f) => return Path::new(ROOT).join(f).exists().then(|| f.into()),
    };
    if !grep(&[dialect, "-e", pattern], witness).status.success() {
        return Some(format!("no match for the witness `{witness}`"));
    }
    let mut walk = vec!["-rn", dialect, "--exclude=retired_names.rs", "-e", pattern];
    walk.extend(args);
    let out = grep(&walk, "");
    let hits = String::from_utf8_lossy(&out.stdout);
    let found = hits.lines().count();
    match out.status.code() {
        Some(0 | 1) if found == lines => None,
        Some(0 | 1) => Some(format!("{found} lines match, {lines} allowed:\n{hits}")),
        _ => Some(format!("grep: {}", String::from_utf8_lossy(&out.stderr))),
    }
}

#[test]
fn retired_names_stay_retired() {
    let mut faults = Vec::new();
    for Rule(name, why, guards) in RULES {
        for fault in guards.iter().filter_map(fault) {
            faults.push(format!("{name}: {why}\n  {fault}"));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n\n"));
}
