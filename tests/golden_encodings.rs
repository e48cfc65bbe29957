//! Pins the bytes every encoder emits for the fixed inputs in
//! `samples/`: a SHA-256 per format, recorded at commit 4d8bed6 (before
//! the decoders and writers moved onto `securetf_tensor::bytes`). A
//! digest changes only when a byte format changes, which needs a
//! versioned magic and a reviewed update of this table. The fs row was
//! re-recorded for the v2 store (`STFMAN02` manifest, `STFJRNL2` journal,
//! chunks under a per-file, per-mount-epoch subkey with pinned AEAD tags;
//! DESIGN.md §13), once more when the sample stopped adding a `/data/`
//! path policy to its manifest, once more for the v3 manifest (the
//! sample's one write sealed an `STFMAN03` checkpoint, which has no
//! reserved fields; its blob did not move), and once more for the v4
//! store: the blob is the bare ciphertext, staged whole and renamed into
//! place, and the checkpoint's magic is `STFMAN04`. The
//! `freeze::save_checkpoint` row replaced the tagless wire body's when
//! that stopped being a checkpoint format of its own; the body is still
//! pinned behind the dense frame's tag. The other 11 are the original
//! digests.

mod samples;

use securetf_crypto::sha256::{self, Sha256};
use securetf_shield::fs::UntrustedStore;

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Digest over everything the host holds, as sorted `(path, bytes)`
/// pairs, each length-prefixed.
fn store_digest(store: &UntrustedStore) -> [u8; 32] {
    let mut h = Sha256::new();
    for path in store.paths() {
        let bytes = store.raw_contents(&path).expect("listed path");
        h.update(&(path.len() as u64).to_le_bytes());
        h.update(path.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    h.finalize()
}

#[test]
fn encoder_output_is_pinned() {
    let table: [(&str, [u8; 32], &str); 13] = [
        (
            "export_graph",
            sha256::digest(&samples::graph()),
            "f07b12ec4ce2ea514adf3dc19e2b59e4424eda55c2644c46a2d6df94420c6ddb",
        ),
        (
            "LiteModel::to_bytes",
            sha256::digest(&samples::lite()),
            "72b6ba652cc66495dffffd1cd5f70e584734e20358a081d822972d7677aeaba4",
        ),
        (
            "QuantizedModel::to_bytes",
            sha256::digest(&samples::quantized()),
            "9a92540c72d1fa511edbe492fb6a368038c9135ba07ba22c311446b86b4ecba4",
        ),
        (
            "Dataset::to_bytes",
            sha256::digest(&samples::dataset()),
            "d5797be105da492abc13b0a0bd769eb506fedf978ccd9195d5e7d5695fbac24e",
        ),
        (
            "encode_request Q",
            sha256::digest(&samples::request_q()),
            "219e40cf6993d9f593338d38b64174c60c623bdcc09ecc4f64ba5caf035d49c0",
        ),
        (
            "encode_request D",
            sha256::digest(&samples::request_d()),
            "3b2eeec4472e3b50f8ec10310a729ce6ad187e3bff97f26219e47c2ed616e4d6",
        ),
        (
            "encode_response R",
            sha256::digest(&samples::response_r()),
            "5892d2c6cc47451470651bb38518b1958c69ba42b8eac48b64ab51cb6fc3d02f",
        ),
        (
            "encode_response E",
            sha256::digest(&samples::response_e()),
            "4d85a05e608d6229ade7f605b431a82b0d48e3a420ccdbbc060991becd21e178",
        ),
        (
            "encode_response U",
            sha256::digest(&samples::response_u()),
            "6681015805b516ce112b0a7fef72dc9d5e66fabd6288f496cd3191d2e06eb4a6",
        ),
        (
            "encode_frame Dense",
            sha256::digest(&samples::dense_frame()),
            "7b26617ff8866ab611e12eb9dfd23044dbd74beeb607f6601d0f2535ed047885",
        ),
        (
            "encode_frame Quantized",
            sha256::digest(&samples::quantized_frame()),
            "9fc4ebf95e1cceda97f4f32ba3fccc114b2887dbddc0c1428f403dcada8de081",
        ),
        (
            "freeze::save_checkpoint",
            sha256::digest(&samples::checkpoint()),
            "ee56cf42049c617cd57448e1aada9d851e6f9521b45618bbb4efc4a15275276f",
        ),
        (
            "FsShield::write",
            store_digest(&samples::fs_image().2),
            "b23f5f2e1e806ea40ea294d1da6e2a665c6cf0ab26d36d2294c27cc4f8b7c664",
        ),
    ];
    let mut wrong = Vec::new();
    for (name, got, want) in table {
        if hex(got) != want {
            wrong.push(format!("{name}: {}", hex(got)));
        }
    }
    assert!(wrong.is_empty(), "encodings changed:\n{}", wrong.join("\n"));
}
