//! The front-door hit path gains no thread hop: a `FrontClient` reads
//! its own replies and the front node answers object ops on the
//! connection thread, so the only thread a client's ops add to the
//! process is that connection thread. Alone in its test binary, because
//! it counts the threads of the whole process.

use std::sync::Arc;

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::{FrontClient, RemoteDiskConfig, ShardServer};
use ecfrm_sim::MemDisk;
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore};

/// Threads of this process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads line").trim().parse().unwrap()
}

#[test]
fn a_thousand_front_ops_add_one_thread_the_front_nodes_connection() {
    if !std::path::Path::new("/proc/self/status").exists() {
        eprintln!("no procfs: no threads to count");
        return;
    }
    let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(4, 2)))
        .layout(LayoutKind::EcFrm)
        .build();
    let front = FrontDoor::new(
        Arc::new(ObjectStore::new(scheme, 512)),
        FrontConfig::default(),
    );
    // Whatever the in-process store starts, it starts here.
    let data: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
    front.put("t", "warm", &data).unwrap();
    front.store().flush();
    assert_eq!(front.read("t", "warm").unwrap(), data);
    let server =
        ShardServer::spawn_with_front(Arc::new(MemDisk::new()), Arc::clone(&front), "127.0.0.1:0")
            .unwrap();
    let before = threads();

    let client = FrontClient::new(server.addr(), RemoteDiskConfig::default());
    let mut ops = 0;
    for i in 0..10 {
        client.put("t", &format!("o{i}"), &data).unwrap();
        ops += 1;
    }
    while ops < 1000 {
        let name = format!("o{}", ops % 10);
        if ops % 2 == 0 {
            assert_eq!(client.read("t", &name).unwrap(), data);
        } else {
            assert_eq!(client.stat("t", &name).unwrap().len, 3000);
        }
        ops += 1;
    }
    assert_eq!(threads(), before + 1, "the front node's connection thread");
    assert_eq!(client.net_stats(), Default::default());
}
