//! Durability and error-surface tests for the store crate.

use aodb_store::{Bytes, Key, LogStore, LogStoreConfig, StateStore, StoreError};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aodb-sync-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_put_survives_a_reopen() {
    let dir = temp_dir("reopen");
    {
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        for i in 0..20 {
            store
                .put(&Key::new("t", &format!("{i}")), Bytes::from_static(b"v"))
                .unwrap();
        }
    }
    let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
    assert_eq!(store.len(), 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_sync_flushes_on_demand_mode() {
    let dir = temp_dir("ondemand");
    let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
    store
        .put(&Key::new("t", "k"), Bytes::from_static(b"v"))
        .unwrap();
    store.sync().unwrap(); // must not error even with nothing pending fsync-wise
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opening_a_file_as_directory_fails_cleanly() {
    let dir = temp_dir("collide");
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    std::fs::write(&dir, b"i am a file").unwrap();
    match LogStore::open(LogStoreConfig::new(&dir)) {
        Err(StoreError::Io(_)) => {}
        Err(other) => panic!("expected Io error, got {other:?}"),
        Ok(_) => panic!("open must fail when the path is a file"),
    }
    let _ = std::fs::remove_file(&dir);
}

#[test]
fn error_display_forms_are_informative() {
    assert!(StoreError::Throttled.to_string().contains("throughput"));
    assert!(StoreError::Io("disk on fire".into())
        .to_string()
        .contains("disk on fire"));
    assert!(StoreError::Corrupt("bad crc".into())
        .to_string()
        .contains("bad crc"));
    assert!(StoreError::Codec("not json".into())
        .to_string()
        .contains("not json"));
}

#[test]
fn wal_len_tracks_appends_and_compaction_resets_it() {
    let dir = temp_dir("wal-len");
    let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
    assert_eq!(store.wal_len(), 0);
    store
        .put(&Key::new("t", "a"), Bytes::from_static(b"hello"))
        .unwrap();
    let after_one = store.wal_len();
    assert!(after_one > 0);
    store
        .put(&Key::new("t", "b"), Bytes::from_static(b"hello"))
        .unwrap();
    assert!(store.wal_len() > after_one);
    store.compact().unwrap();
    assert_eq!(store.wal_len(), 0);
    assert_eq!(store.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
