//! Full-stack metadata churn: a vdbench-style create/read/stat/delete mix
//! generated by `dpc-testkit` runs against a live DPC instance, with a
//! shadow model verifying every result.

use std::collections::HashMap;

use dpc::core::{Dpc, DpcConfig};
use dpc_testkit::{FileOp, FileSetGen, FileSetMix};

#[test]
fn churn_mix_through_the_full_stack() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    fs.mkdir("/set").unwrap();

    let mut gen = FileSetGen::new(FileSetMix::churn(), 2048, 99);
    let mut model: HashMap<String, usize> = HashMap::new();

    let apply = |fs: &dpc::core::DpcFs, model: &mut HashMap<String, usize>, op: FileOp| match op {
        FileOp::CreateWrite { name, size } => {
            let path = format!("/set/{name}");
            let fd = fs.create(&path).unwrap();
            let fill = (name.len() % 251) as u8;
            fs.write(fd, 0, &vec![fill; size]).unwrap();
            fs.close(fd).unwrap();
            model.insert(name, size);
        }
        FileOp::ReadWhole { name } => {
            let path = format!("/set/{name}");
            let size = model[&name];
            let fd = fs.open(&path).unwrap();
            let mut buf = vec![0u8; size + 16];
            let n = fs.read(fd, 0, &mut buf).unwrap();
            assert_eq!(n, size, "{name}");
            let fill = (name.len() % 251) as u8;
            assert!(buf[..n].iter().all(|&b| b == fill), "{name} content");
        }
        FileOp::Stat { name } => {
            let attr = fs.stat(&format!("/set/{name}")).unwrap();
            assert_eq!(attr.size as usize, model[&name], "{name} size");
        }
        FileOp::Delete { name } => {
            fs.unlink(&format!("/set/{name}")).unwrap();
            model.remove(&name);
        }
        FileOp::List => {
            let entries = fs.readdir("/set").unwrap();
            assert_eq!(entries.len(), model.len(), "listing count");
        }
    };

    for op in gen.populate(30) {
        apply(&fs, &mut model, op);
    }
    for _ in 0..300 {
        let op = gen.next_op();
        apply(&fs, &mut model, op);
    }

    // Final consistency sweep.
    let entries = fs.readdir("/set").unwrap();
    assert_eq!(entries.len(), model.len());
    for e in entries {
        assert!(model.contains_key(&e.name), "stray entry {}", e.name);
    }

    // The metrics surface reflects the work.
    let m = dpc.metrics();
    // One crossing per namespace call whatever its depth, one more for
    // the close of a written file, none for a clean one: the mkdir and the
    // sweep, 30 × (create + close), 300 mixed ops of at least one each.
    assert!(m.requests_served >= 2 + 30 * 2 + 300);
    assert!(m.kv.puts > 0 && m.kv.scans > 0);
    assert!(
        m.dentry_hit_rate() > 0.3,
        "churn reuses names: {}",
        m.dentry_hit_rate()
    );
    println!("{m}");
}
