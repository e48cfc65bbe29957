//! The AEAD's oracle: the original correctness-first ChaCha20-Poly1305
//! (RFC 7539 §2.8) the crate's in-place paths replaced — scalar
//! one-block ChaCha20 with byte-wise XOR, heap-allocated pads and
//! [`ReferencePoly1305`]. Its output is bit-identical to `aead::seal`.

use super::poly1305::ReferencePoly1305;
use securetf_crypto::aead::{Key, Nonce, TAG_LEN};
use securetf_crypto::chacha20::ChaCha20;
use securetf_crypto::{ct, CryptoError};

/// The original scalar keystream application: one block at a time,
/// byte-wise XOR. Output and counter are those of
/// `ChaCha20::apply_keystream`.
pub fn apply_keystream_reference(cipher: &mut ChaCha20, data: &mut [u8]) {
    for chunk in data.chunks_mut(64) {
        let block = cipher.next_block();
        for (byte, k) in chunk.iter_mut().zip(block.iter()) {
            *byte ^= k;
        }
    }
}

/// The original correctness-first seal: scalar one-block ChaCha20 via
/// [`apply_keystream_reference`] and the allocating pad path. Output is
/// bit-identical to `aead::seal`.
pub fn seal_reference(key: &Key, nonce: &Nonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    apply_keystream_reference(
        &mut ChaCha20::new(key.as_bytes(), nonce.as_bytes(), 1),
        &mut out,
    );
    let mut c = ChaCha20::new(key.as_bytes(), nonce.as_bytes(), 0);
    let block0 = c.next_block();
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block0[..32]);
    let tag = compute_tag_reference(&pk, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// The original allocating open, counterpart of [`seal_reference`].
///
/// # Errors
///
/// Same contract as `aead::open`.
pub fn open_reference(
    key: &Key,
    nonce: &Nonce,
    sealed: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < TAG_LEN {
        return Err(CryptoError::TruncatedInput);
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let mut c = ChaCha20::new(key.as_bytes(), nonce.as_bytes(), 0);
    let block0 = c.next_block();
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block0[..32]);
    let expect = compute_tag_reference(&pk, aad, ciphertext);
    if !ct::eq(&expect, tag) {
        return Err(CryptoError::TagMismatch);
    }
    let mut out = ciphertext.to_vec();
    apply_keystream_reference(
        &mut ChaCha20::new(key.as_bytes(), nonce.as_bytes(), 1),
        &mut out,
    );
    Ok(out)
}

/// The original tag computation, with heap-allocated pads.
fn compute_tag_reference(pk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = ReferencePoly1305::new(pk);
    mac.update(aad);
    mac.update(&vec![0u8; (16 - aad.len() % 16) % 16]);
    mac.update(ciphertext);
    mac.update(&vec![0u8; (16 - ciphertext.len() % 16) % 16]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 7539 §2.8.2, the whole record: a later edit to the oracle must
    // not move the contract the fast paths are held to.
    #[test]
    fn reference_aead_matches_rfc7539_2_8_2() {
        let key = Key::from_bytes(
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap(),
        );
        let nonce = Nonce::from_bytes(unhex("070000004041424344454647").try_into().unwrap());
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let expect = unhex(
            "d31a8d34648e60db7b86afbc53ef7ec2\
             a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b\
             1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58\
             fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b\
             6116\
             1ae10b594f09e26a7e902ecbd0600691",
        );
        let sealed = seal_reference(&key, &nonce, plaintext, &aad);
        assert_eq!(sealed, expect);
        assert_eq!(
            open_reference(&key, &nonce, &sealed, &aad).unwrap(),
            plaintext
        );
    }
}
