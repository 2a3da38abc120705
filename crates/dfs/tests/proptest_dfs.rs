//! Property tests for the DFS substrate:
//!
//! - arbitrary block write/read sequences through *any mix of clients*
//!   (one standard, two optimized) against one backend agree with a
//!   reference model — the clients are interchangeable views of one
//!   file system;
//! - reads stay correct under any failure pattern of ≤ m data servers.

use std::collections::HashMap;

use dpc_dfs::{ClientCore, DfsBackend, DfsConfig, FsClient, StandardClient, DFS_BLOCK};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Write { client: u8, block: u64, fill: u8 },
    Read { client: u8, block: u64 },
    FailServers { mask: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..3, 0u64..6, any::<u8>())
            .prop_map(|(client, block, fill)| Op::Write { client, block, fill }),
        4 => (0u8..3, 0u64..6).prop_map(|(client, block)| Op::Read { client, block }),
        1 => (0u8..64).prop_map(|mask| Op::FailServers { mask }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clients_are_interchangeable_views(ops in proptest::collection::vec(arb_op(), 1..50)) {
        let backend = DfsBackend::new(DfsConfig::default());
        let mut clients: Vec<Box<dyn FsClient>> = vec![
            Box::new(StandardClient::new(backend.clone(), 0)),
            Box::new(ClientCore::new(backend.clone(), 10)),
            Box::new(ClientCore::new(backend.clone(), 11)),
        ];
        let (attr, _) = clients[0].create(0, "shared").unwrap();
        let ino = attr.ino;
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut failed_count = 0usize;

        for op in ops {
            match op {
                Op::Write { client, block, fill } => {
                    // Writes require all shard targets up.
                    if failed_count > 0 {
                        for s in 0..backend.data_server_count() {
                            backend.data_server(s).set_failed(false);
                        }
                        failed_count = 0;
                    }
                    clients[client as usize]
                        .write_block(ino, block, &vec![fill; DFS_BLOCK])
                        .unwrap();
                    model.insert(block, fill);
                }
                Op::Read { client, block } => {
                    let res = clients[client as usize].read_block(ino, block);
                    match model.get(&block) {
                        Some(&fill) if failed_count <= 2 => {
                            let (data, _) = res.unwrap();
                            prop_assert!(
                                data.iter().all(|&b| b == fill),
                                "client {client} read wrong data for block {block}"
                            );
                        }
                        Some(_) => {
                            // >m failures: errors are acceptable, silence
                            // is not — wrong data must never be returned.
                            if let Ok((data, _)) = res {
                                let fill = model[&block];
                                prop_assert!(data.iter().all(|&b| b == fill));
                            }
                        }
                        None => {
                            prop_assert!(res.is_err(), "read of unwritten block succeeded");
                        }
                    }
                }
                Op::FailServers { mask } => {
                    failed_count = 0;
                    for s in 0..backend.data_server_count() {
                        let fail = mask & (1 << s) != 0;
                        backend.data_server(s).set_failed(fail);
                        if fail {
                            failed_count += 1;
                        }
                    }
                }
            }
        }
    }
}
