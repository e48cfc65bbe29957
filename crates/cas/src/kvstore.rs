//! The encrypted embedded database of CAS (paper §4.3).
//!
//! The paper embeds an encrypted SQLite inside the CAS enclave; secrets,
//! certificates and policies never exist in plaintext outside enclave
//! memory. This module provides the equivalent: a key-value map held in
//! enclave memory whose whole image is one file of the CAS enclave's fs
//! shield. Every update rewrites that file as one journaled shield write,
//! so the store inherits the shield's guarantees instead of keeping its
//! own: chunk AEAD under per-mount keys (confidentiality, integrity), a
//! manifest pinned by a platform monotonic counter (restoring an older
//! database file, or an older image of the whole disk, is a rollback and
//! fails closed), and crash consistency (an update either happened or did
//! not).
//!
//! One store per CAS identity and disk: [`KvStore::create`] and
//! [`KvStore::open`] mount the identity's shield namespace, as
//! [`FsShield::recover`] does for any enclave.
//!
//! # Examples
//!
//! ```
//! use securetf_cas::kvstore::KvStore;
//! use securetf_shield::fs::UntrustedStore;
//! use securetf_tee::{Platform, EnclaveImage, ExecutionMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::builder().build();
//! let enclave = platform.create_enclave(
//!     &EnclaveImage::builder().code(b"cas").build(),
//!     ExecutionMode::Hardware,
//! )?;
//! let disk = UntrustedStore::new();
//! let mut db = KvStore::create(enclave.clone(), disk.clone(), "/cas/db")?;
//! db.put(b"api-key", b"secret")?;
//! drop(db);
//!
//! let db2 = KvStore::open(enclave, disk, "/cas/db")?;
//! assert_eq!(db2.get(b"api-key"), Some(b"secret".to_vec()));
//! # Ok(())
//! # }
//! ```

use crate::CasError;
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_shield::ShieldError;
use securetf_tee::Enclave;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-enclave plaintext view of the store's entries.
type Entries = BTreeMap<Vec<u8>, Vec<u8>>;

/// An encrypted, rollback-protected key-value store.
#[derive(Debug)]
pub struct KvStore {
    shield: FsShield,
    path: String,
    /// Plaintext view, inside enclave memory only: always the image the
    /// shield last committed.
    map: Entries,
}

impl KvStore {
    /// Creates a fresh store persisted at `path` on the untrusted disk.
    ///
    /// # Errors
    ///
    /// * [`CasError::StoreCorrupted`] if a store already exists at `path`
    ///   (refusing to silently overwrite state), or if the disk fails the
    ///   shield's mount checks.
    /// * [`CasError::Storage`] if the host crashes.
    pub fn create(
        enclave: Arc<Enclave>,
        disk: UntrustedStore,
        path: &str,
    ) -> Result<Self, CasError> {
        let (shield, _) = FsShield::recover(enclave, disk)?;
        if shield.exists(path) {
            return Err(CasError::StoreCorrupted("store already exists at path"));
        }
        let mut store = KvStore {
            shield,
            path: path.to_string(),
            map: Entries::new(),
        };
        store.commit(Entries::new())?;
        Ok(store)
    }

    /// Opens an existing store, verifying integrity and freshness.
    ///
    /// # Errors
    ///
    /// * [`CasError::NotFound`] if nothing exists at `path`.
    /// * [`CasError::StoreCorrupted`] if the disk or the image fails the
    ///   shield's checks: tampering, a rollback of the file or of the
    ///   whole disk, or a different enclave identity.
    /// * [`CasError::Storage`] if the host crashes.
    pub fn open(
        enclave: Arc<Enclave>,
        disk: UntrustedStore,
        path: &str,
    ) -> Result<Self, CasError> {
        let (shield, _) = FsShield::recover(enclave, disk)?;
        let image = shield.read(path).map_err(|e| match e {
            ShieldError::FileNotFound(_) => CasError::NotFound(path.to_string()),
            other => other.into(),
        })?;
        let map = decode(&image).ok_or(CasError::StoreCorrupted("malformed image"))?;
        Ok(KvStore {
            shield,
            path: path.to_string(),
            map,
        })
    }

    /// Writes `next` as the store's image and adopts it once the write is
    /// durable. A host crash after the shield's commit point still
    /// counts: the write is durable and every later open rolls it
    /// forward, so the in-enclave map follows it and the crash surfaces
    /// at the next write.
    fn commit(&mut self, next: Entries) -> Result<(), CasError> {
        let committed = self.shield.version(&self.path);
        match self.shield.write(&self.path, &encode(&next)) {
            Ok(()) => {}
            Err(ShieldError::HostCrashed(_)) if self.shield.version(&self.path) != committed => {}
            Err(e) => return Err(e.into()),
        }
        self.map = next;
        Ok(())
    }

    /// Inserts or replaces a value, persisting the store. On error the
    /// store is unchanged, in enclave memory and on disk.
    ///
    /// # Errors
    ///
    /// [`CasError::Storage`] if the host crashes before the write commits.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), CasError> {
        let mut next = self.map.clone();
        next.insert(key.to_vec(), value.to_vec());
        self.commit(next)
    }

    /// Reads a value.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.get(key).cloned()
    }

    /// Deletes a key, persisting the store. Returns whether it existed.
    /// On error the store is unchanged.
    ///
    /// # Errors
    ///
    /// [`CasError::Storage`] if the host crashes before the write commits.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, CasError> {
        if !self.map.contains_key(key) {
            return Ok(false);
        }
        let mut next = self.map.clone();
        next.remove(key);
        self.commit(next)?;
        Ok(true)
    }

    /// Iterates keys with a prefix.
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        self.map
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current persisted version: the shield's version of the image file.
    pub fn version(&self) -> u64 {
        self.shield.version(&self.path).unwrap_or(0)
    }
}

/// The image: `u64 count`, then `u32 len | key | u32 len | value` per
/// entry in key order.
fn encode(map: &Entries) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(map.len() as u64).to_le_bytes());
    for (k, v) in map {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

/// Parses an image written by [`encode`]. The shield has authenticated it
/// as one this identity wrote; the parse is total all the same.
fn decode(mut rest: &[u8]) -> Option<Entries> {
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        let (head, tail) = rest.split_at_checked(n)?;
        *rest = tail;
        Some(head)
    }
    let len = |rest: &mut &[u8]| Some(u32::from_le_bytes(take(rest, 4)?.try_into().ok()?) as usize);
    let entries = u64::from_le_bytes(take(&mut rest, 8)?.try_into().ok()?);
    let mut map = Entries::new();
    for _ in 0..entries {
        let klen = len(&mut rest)?;
        let k = take(&mut rest, klen)?.to_vec();
        let vlen = len(&mut rest)?;
        let v = take(&mut rest, vlen)?.to_vec();
        map.insert(k, v);
    }
    rest.is_empty().then_some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};

    const PATH: &str = "/cas/db";

    fn enclave_named(platform: &Platform, code: &[u8]) -> Arc<Enclave> {
        platform
            .create_enclave(
                &EnclaveImage::builder().code(code).build(),
                ExecutionMode::Hardware,
            )
            .unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let mut db = KvStore::create(e, UntrustedStore::new(), PATH).unwrap();
        db.put(b"k1", b"v1").unwrap();
        db.put(b"k2", b"v2").unwrap();
        assert_eq!(db.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(db.get(b"missing"), None);
        assert_eq!(db.len(), 2);
        assert_eq!(db.version(), 3, "create and two puts");
    }

    #[test]
    fn reopen_preserves_data() {
        let platform = Platform::builder().build();
        let disk = UntrustedStore::new();
        {
            let e = enclave_named(&platform, b"cas");
            let mut db = KvStore::create(e, disk.clone(), PATH).unwrap();
            db.put(b"persisted", b"yes").unwrap();
        }
        // A restarted CAS: a new instance of the same identity.
        let db = KvStore::open(enclave_named(&platform, b"cas"), disk, PATH).unwrap();
        assert_eq!(db.get(b"persisted"), Some(b"yes".to_vec()));
    }

    #[test]
    fn disk_holds_only_ciphertext() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let disk = UntrustedStore::new();
        let mut db = KvStore::create(e, disk.clone(), PATH).unwrap();
        db.put(b"key-name", b"super-secret-value").unwrap();
        for path in disk.paths() {
            let raw = disk.raw_contents(&path).unwrap();
            assert!(!raw.windows(18).any(|w| w == b"super-secret-value"));
            assert!(!raw.windows(8).any(|w| w == b"key-name"));
        }
    }

    #[test]
    fn tampered_disk_detected_on_open() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let disk = UntrustedStore::new();
        {
            let mut db = KvStore::create(e.clone(), disk.clone(), PATH).unwrap();
            db.put(b"a", b"b").unwrap();
        }
        disk.corrupt(PATH, 20);
        assert!(matches!(
            KvStore::open(e, disk, PATH),
            Err(CasError::StoreCorrupted(_))
        ));
    }

    #[test]
    fn rollback_of_database_file_detected() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let disk = UntrustedStore::new();
        let mut db = KvStore::create(e.clone(), disk.clone(), PATH).unwrap();
        db.put(b"key", b"old").unwrap();
        let old_file = disk.raw_contents(PATH).unwrap();
        let old_disk = disk.snapshot();
        db.put(b"key", b"new").unwrap();
        drop(db);
        // The attacker restores the older (validly sealed) database file...
        disk.raw_put(PATH, old_file);
        assert!(matches!(
            KvStore::open(e.clone(), disk.clone(), PATH),
            Err(CasError::StoreCorrupted(_))
        ));
        // ...or the older image of the whole disk, manifest included.
        disk.restore(&old_disk);
        assert!(matches!(
            KvStore::open(e, disk, PATH),
            Err(CasError::StoreCorrupted(_))
        ));
    }

    #[test]
    fn different_enclave_cannot_open() {
        let platform = Platform::builder().build();
        let cas = enclave_named(&platform, b"cas v1");
        let other = enclave_named(&platform, b"evil cas");
        let disk = UntrustedStore::new();
        {
            let mut db = KvStore::create(cas, disk.clone(), PATH).unwrap();
            db.put(b"a", b"b").unwrap();
        }
        assert!(matches!(
            KvStore::open(other, disk, PATH),
            Err(CasError::StoreCorrupted(_))
        ));
    }

    #[test]
    fn delete_and_prefix_scan() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let mut db = KvStore::create(e, UntrustedStore::new(), PATH).unwrap();
        db.put(b"secret/a", b"1").unwrap();
        db.put(b"secret/b", b"2").unwrap();
        db.put(b"policy/x", b"3").unwrap();
        assert_eq!(db.keys_with_prefix(b"secret/").len(), 2);
        assert!(db.delete(b"secret/a").unwrap());
        assert!(!db.delete(b"secret/a").unwrap());
        assert_eq!(db.keys_with_prefix(b"secret/").len(), 1);
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let disk = UntrustedStore::new();
        let _db = KvStore::create(e.clone(), disk.clone(), PATH).unwrap();
        assert!(matches!(
            KvStore::create(e, disk, PATH),
            Err(CasError::StoreCorrupted(_))
        ));
    }

    #[test]
    fn open_missing_is_not_found() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        assert!(matches!(
            KvStore::open(e, UntrustedStore::new(), "/cas/never-created"),
            Err(CasError::NotFound(_))
        ));
    }

    #[test]
    fn a_failed_put_leaves_the_store_as_it_was() {
        let platform = Platform::builder().build();
        let e = enclave_named(&platform, b"cas");
        let disk = UntrustedStore::new();
        let mut db = KvStore::create(e.clone(), disk.clone(), PATH).unwrap();
        db.put(b"k", b"old").unwrap();
        disk.fail_after_ops(0);
        assert!(matches!(
            db.put(b"k", b"new"),
            Err(CasError::Storage(ShieldError::HostCrashed(_)))
        ));
        assert_eq!(db.get(b"k"), Some(b"old".to_vec()));
        disk.host_restart();
        let reopened = KvStore::open(e, disk, PATH).unwrap();
        assert_eq!(reopened.get(b"k"), Some(b"old".to_vec()));
    }

    #[test]
    fn image_decoder_is_total() {
        let mut map = Entries::new();
        map.insert(b"key".to_vec(), b"value".to_vec());
        let image = encode(&map);
        assert_eq!(decode(&image), Some(map));
        for cut in 0..image.len() {
            assert_eq!(decode(&image[..cut]), None, "prefix of {cut} bytes");
        }
        let mut longer = image.clone();
        longer.push(0);
        assert_eq!(decode(&longer), None);
        let mut huge = image;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&huge), None);
    }
}
