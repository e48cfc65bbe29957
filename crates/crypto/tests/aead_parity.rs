//! Differential tests: every AEAD entry point — allocating, in-place
//! detached, context append — must produce bytes identical to the
//! reference implementation in `oracle/aead.rs` across arbitrary payload
//! lengths and every AAD alignment, and the multi-block ChaCha20 fast path
//! must emit the reference keystream. The chunked tier ([`aead::Sealer`] /
//! [`aead::Opener`]) must give the in-place tier's bytes and tag for any
//! cut of a record up to a mebibyte, and refuse any flipped bit.

use proptest::prelude::*;
use securetf_crypto::aead::{self, AeadCtx, Key, Nonce, Opener, Sealer, TAG_LEN};
use securetf_crypto::chacha20::ChaCha20;

#[path = "oracle/mod.rs"]
mod oracle;

use oracle::aead::{apply_keystream_reference, open_reference, seal_reference};

// The record sizes where seal / open change path: nothing to encrypt, one
// block, and the last size whose whole keystream comes out of the one
// engine call that also yields the Poly1305 key (448 bytes = 7 blocks
// beside block 0) — each with the AAD lengths that are absent, the net
// shield's (8), the fs shield's shape (13), a whole block and one over.
#[test]
fn short_path_boundaries_match_the_reference() {
    let key = Key::from_bytes(std::array::from_fn(|i| (i * 11 + 5) as u8));
    let ctx = AeadCtx::new(key.clone());
    for len in [0usize, 1, 63, 64, 65, 447, 448, 449] {
        for aad_len in [0usize, 8, 13, 16, 17] {
            let nonce = Nonce::from_counter(len as u32, aad_len as u64);
            let plaintext: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(89) >> 1) as u8).collect();
            let aad: Vec<u8> = (0..aad_len).map(|i| (i * 5 + 1) as u8).collect();
            let case = format!("len {len}, aad {aad_len}");

            let reference = seal_reference(&key, &nonce, &plaintext, &aad);
            assert_eq!(
                aead::seal(&key, &nonce, &plaintext, &aad),
                reference,
                "{case}"
            );
            let mut buf = plaintext.clone();
            let tag = ctx.seal_in_place_detached(&nonce, &mut buf, &aad);
            assert_eq!(buf, reference[..len], "{case}: ciphertext");
            assert_eq!(tag, reference[len..], "{case}: tag");
            let mut appended = vec![0x77];
            ctx.seal_append(&nonce, &plaintext, &aad, &mut appended);
            assert_eq!(appended[1..], reference[..], "{case}: seal_append");

            assert_eq!(
                aead::open(&key, &nonce, &reference, &aad).unwrap(),
                plaintext,
                "{case}"
            );
            assert_eq!(
                open_reference(&key, &nonce, &reference, &aad).unwrap(),
                plaintext,
                "{case}"
            );
            ctx.open_in_place_detached(&nonce, &mut buf, &tag, &aad)
                .unwrap();
            assert_eq!(buf, plaintext, "{case}: open in place");
            let mut opened = vec![0x77];
            ctx.open_append(&nonce, &reference, &aad, &mut opened)
                .unwrap();
            assert_eq!(opened[1..], plaintext[..], "{case}: open_append");
        }
    }
}

/// `buf` cut into consecutive chunks whose lengths cycle through `cuts`
/// (each at least one byte), preceded by an empty one.
fn cut<'a>(mut buf: &'a mut [u8], cuts: &[usize]) -> Vec<&'a mut [u8]> {
    let mut chunks = vec![Default::default()];
    for &len in cuts.iter().cycle() {
        if buf.is_empty() {
            break;
        }
        let len = len.clamp(1, buf.len());
        let (chunk, rest) = std::mem::take(&mut buf).split_at_mut(len);
        chunks.push(chunk);
        buf = rest;
    }
    chunks
}

/// Opens `ciphertext` chunk by chunk along `cuts` and checks `tag`.
fn open_chunked(
    key: &Key,
    nonce: &Nonce,
    ciphertext: &[u8],
    tag: &[u8],
    aad: &[u8],
    cuts: &[usize],
) -> Result<Vec<u8>, securetf_crypto::CryptoError> {
    let mut opener = Opener::new(key, nonce, aad);
    let mut plaintext = ciphertext.to_vec();
    for chunk in cut(&mut plaintext, cuts) {
        opener.open_chunk(chunk);
    }
    opener.finish(tag, plaintext)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_seal_and_open_match_the_one_shot_record(
        len in 0usize..(1 << 20) + 77,
        scale in 0usize..3,
        aad_len in 0usize..40,
        cuts in prop::collection::vec((1usize..(1 << 18), 0usize..3), 1..6),
        key_seed in any::<u8>(),
        seq in any::<u64>(),
        flip in any::<prop::sample::Index>(),
    ) {
        // A mebibyte, 16 KiB or 256 B scale, so short records and short
        // chunks (off the 16- and 64-byte grids) come up as often as long.
        let len = len >> (6 * scale);
        let cuts: Vec<usize> = cuts.iter().map(|&(c, s)| c >> (6 * s)).collect();
        let key = Key::from_bytes(std::array::from_fn(|i| key_seed ^ (i * 29) as u8));
        let nonce = Nonce::from_counter(0x4d4f_4445, seq);
        let plaintext: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        let aad: Vec<u8> = (0..aad_len).map(|i| (i * 13 + 1) as u8).collect();

        let mut whole = plaintext.clone();
        let tag = aead::seal_in_place_detached(&key, &nonce, &mut whole, &aad);
        let mut chunked = plaintext.clone();
        let mut sealer = Sealer::new(&key, &nonce, &aad);
        for chunk in cut(&mut chunked, &cuts) {
            sealer.seal_chunk(chunk);
        }
        prop_assert!(chunked == whole, "chunked ciphertext diverged at len {}", len);
        prop_assert_eq!(sealer.finish(), tag);

        let opened = open_chunked(&key, &nonce, &whole, &tag, &aad, &cuts);
        prop_assert!(opened.as_deref() == Ok(&plaintext[..]), "chunked open failed at len {}", len);

        // One flipped bit anywhere in ciphertext, tag or AAD fails the open.
        let (mut ciphertext, mut bad_tag, mut bad_aad) = (whole, tag, aad);
        let bit = flip.index((len + TAG_LEN + aad_len) * 8);
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        if byte < len {
            ciphertext[byte] ^= mask;
        } else if byte < len + TAG_LEN {
            bad_tag[byte - len] ^= mask;
        } else {
            bad_aad[byte - len - TAG_LEN] ^= mask;
        }
        prop_assert_eq!(
            open_chunked(&key, &nonce, &ciphertext, &bad_tag, &bad_aad, &cuts),
            Err(securetf_crypto::CryptoError::TagMismatch)
        );
    }
}

#[test]
fn an_opener_refuses_a_short_tag_or_a_buffer_of_another_length() {
    let (key, nonce) = (Key::from_bytes([5; 32]), Nonce::from_counter(2, 9));
    let mut record = vec![0x5au8; 300];
    let tag = aead::seal_in_place_detached(&key, &nonce, &mut record, b"");
    for (tag, plaintext_len) in [(&tag[..15], 300), (&tag[..], 299)] {
        let mut opener = Opener::new(&key, &nonce, b"");
        let mut buf = record.clone();
        opener.open_chunk(&mut buf);
        buf.truncate(plaintext_len);
        assert_eq!(
            opener.finish(tag, buf),
            Err(securetf_crypto::CryptoError::TruncatedInput)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_seal_path_matches_the_reference(
        len in 0usize..4096,
        aad_len in 0usize..49,
        key_seed in any::<u8>(),
        stream in any::<u32>(),
        seq in any::<u64>(),
    ) {
        let key = Key::from_bytes(std::array::from_fn(|i| key_seed.wrapping_add(i as u8)));
        let nonce = Nonce::from_counter(stream, seq);
        let plaintext: Vec<u8> =
            (0..len).map(|i| (i.wrapping_mul(131) >> 2) as u8).collect();
        let aad: Vec<u8> = (0..aad_len).map(|i| (i * 7 + 3) as u8).collect();

        let reference = seal_reference(&key, &nonce, &plaintext, &aad);
        let sealed = aead::seal(&key, &nonce, &plaintext, &aad);
        prop_assert_eq!(&sealed, &reference, "allocating seal diverged");

        let mut buf = plaintext.clone();
        let tag = aead::seal_in_place_detached(&key, &nonce, &mut buf, &aad);
        prop_assert_eq!(&buf[..], &reference[..len], "in-place ciphertext diverged");
        prop_assert_eq!(&tag[..], &reference[len..], "in-place tag diverged");

        let ctx = AeadCtx::new(key.clone());
        let mut appended = Vec::new();
        ctx.seal_append(&nonce, &plaintext, &aad, &mut appended);
        prop_assert_eq!(&appended, &reference, "seal_append diverged");

        // Every open path accepts the record and agrees on the plaintext.
        prop_assert_eq!(
            aead::open(&key, &nonce, &sealed, &aad).unwrap(),
            plaintext.clone()
        );
        prop_assert_eq!(
            open_reference(&key, &nonce, &sealed, &aad).unwrap(),
            plaintext.clone()
        );
        let mut in_place = sealed[..len].to_vec();
        aead::open_in_place_detached(&key, &nonce, &mut in_place, &sealed[len..], &aad).unwrap();
        prop_assert_eq!(&in_place, &plaintext);
        let mut opened = Vec::new();
        ctx.open_append(&nonce, &sealed, &aad, &mut opened).unwrap();
        prop_assert_eq!(&opened, &plaintext);
    }

    #[test]
    fn fast_keystream_matches_reference(
        len in 0usize..2048,
        counter in 0u32..1000,
        key_seed in any::<u8>(),
    ) {
        let key: [u8; 32] = std::array::from_fn(|i| key_seed.wrapping_mul(i as u8 + 1));
        let nonce: [u8; 12] = std::array::from_fn(|i| (i as u8) ^ key_seed);
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();

        let mut fast = data.clone();
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut fast);
        let mut slow = data;
        apply_keystream_reference(&mut ChaCha20::new(&key, &nonce, counter), &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn tampering_any_byte_is_rejected_by_every_open_path(
        len in 1usize..256,
        flip in any::<prop::sample::Index>(),
    ) {
        let key = Key::from_bytes([3u8; 32]);
        let nonce = Nonce::from_counter(1, 1);
        let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut sealed = aead::seal(&key, &nonce, &plaintext, b"aad");
        let idx = flip.index(sealed.len());
        sealed[idx] ^= 0x40;

        prop_assert!(aead::open(&key, &nonce, &sealed, b"aad").is_err());
        prop_assert!(open_reference(&key, &nonce, &sealed, b"aad").is_err());
        let ct_len = sealed.len() - TAG_LEN;
        let mut buf = sealed[..ct_len].to_vec();
        prop_assert!(
            aead::open_in_place_detached(&key, &nonce, &mut buf, &sealed[ct_len..], b"aad")
                .is_err()
        );
        // Failed in-place open leaves the ciphertext untouched.
        prop_assert_eq!(&buf[..], &sealed[..ct_len]);
    }
}
