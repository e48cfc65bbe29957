//! Synthetic datasets standing in for MNIST and CIFAR-10 (paper §5.1).
//!
//! The paper trains on MNIST (60,000 28×28 grayscale digits) and
//! classifies CIFAR-10 (60,000 32×32 color images). Shipping those
//! datasets is neither possible nor necessary here: the experiments need
//! (a) inputs with the right *dimensions* (they size the activations and
//! I/O that hit the EPC and the shields) and (b) enough class structure
//! that training demonstrably converges and accuracy parity between
//! native and enclave execution is checkable. The generators produce
//! class-conditional images — each class has a deterministic spatial
//! pattern, perturbed per-sample — that a small MLP/CNN learns to >90%
//! accuracy within a few epochs.
//!
//! # Examples
//!
//! ```
//! use securetf_data::{Dataset, synthetic_mnist};
//!
//! let data = synthetic_mnist(100, 7);
//! assert_eq!(data.len(), 100);
//! assert_eq!(data.feature_len(), 28 * 28);
//! let (images, labels) = data.batch(0, 10).unwrap();
//! assert_eq!(images.shape(), &[10, 784]);
//! assert_eq!(labels.shape(), &[10, 10]);
//! ```

use securetf_tensor::bytes::{put_f32s, put_u32, Reader};
use securetf_tensor::tensor::{checked_elements, Tensor};
use securetf_tensor::TensorError;

/// Number of classes in both synthetic datasets.
pub const CLASSES: usize = 10;

/// A labeled image dataset in flat row-major form.
#[derive(Debug, Clone)]
pub struct Dataset {
    height: usize,
    width: usize,
    channels: usize,
    /// One row per image, `height * width * channels` features.
    features: Vec<f32>,
    /// Class index per image.
    labels: Vec<u8>,
}

impl Dataset {
    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Features per image.
    pub fn feature_len(&self) -> usize {
        self.height * self.width * self.channels
    }

    /// Image dimensions `(height, width, channels)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.height, self.width, self.channels)
    }

    /// The class label of image `i`.
    pub fn label(&self, i: usize) -> Option<usize> {
        self.labels.get(i).map(|&l| l as usize)
    }

    /// Total dataset size in bytes.
    pub fn byte_len(&self) -> u64 {
        (self.features.len() * 4 + self.labels.len()) as u64
    }

    /// Returns `(images, one_hot_labels)` for images `[start, start+n)`.
    ///
    /// Images are `[n, features]`; reshape with [`Dataset::batch_nhwc`]
    /// for convolutional models.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadFeed`] if the range is out of bounds.
    pub fn batch(&self, start: usize, n: usize) -> Result<(Tensor, Tensor), TensorError> {
        if start + n > self.len() {
            return Err(TensorError::BadFeed(format!(
                "batch [{start}, {}) out of range (len {})",
                start + n,
                self.len()
            )));
        }
        let f = self.feature_len();
        let images = Tensor::from_vec(
            &[n, f],
            self.features[start * f..(start + n) * f].to_vec(),
        )?;
        let mut one_hot = vec![0.0f32; n * CLASSES];
        for (row, &label) in self.labels[start..start + n].iter().enumerate() {
            one_hot[row * CLASSES + label as usize] = 1.0;
        }
        let labels = Tensor::from_vec(&[n, CLASSES], one_hot)?;
        Ok((images, labels))
    }

    /// Like [`Dataset::batch`] but shaped `[n, h, w, c]` for conv nets.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadFeed`] if the range is out of bounds.
    pub fn batch_nhwc(&self, start: usize, n: usize) -> Result<(Tensor, Tensor), TensorError> {
        let (images, labels) = self.batch(start, n)?;
        Ok((
            images.reshape(&[n, self.height, self.width, self.channels])?,
            labels,
        ))
    }

    /// Splits into `(first_n, rest)` — e.g. train/test.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn split(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split point beyond dataset");
        let f = self.feature_len();
        let first = Dataset {
            height: self.height,
            width: self.width,
            channels: self.channels,
            features: self.features[..n * f].to_vec(),
            labels: self.labels[..n].to_vec(),
        };
        let rest = Dataset {
            height: self.height,
            width: self.width,
            channels: self.channels,
            features: self.features[n * f..].to_vec(),
            labels: self.labels[n..].to_vec(),
        };
        (first, rest)
    }

    /// Serializes the dataset (for the file-system shield experiments).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.features.len() * 4 + self.labels.len());
        for field in [self.height, self.width, self.channels, self.labels.len()] {
            put_u32(&mut out, field as u32);
        }
        put_f32s(&mut out, &self.features);
        out.extend_from_slice(&self.labels);
        out
    }

    /// Deserializes a dataset written by [`Dataset::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MalformedModel`] on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Dataset, TensorError> {
        let mut r = Reader::new(bytes);
        let (height, width, channels, count) =
            (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
        // `count` images of h*w*c (non-zero) f32 features, then `count`
        // label bytes, both taken from bytes that exist: four hostile
        // header fields cannot size an allocation.
        let values = checked_elements(&[height, width, channels])
            .filter(|&f| f != 0)
            .and_then(|f| f.checked_mul(count))
            .ok_or(TensorError::MalformedModel("length mismatch"))?;
        let features = r.f32s(values)?;
        let labels = r.take(count)?.to_vec();
        r.finish()?;
        if labels.iter().any(|&l| l as usize >= CLASSES) {
            return Err(TensorError::MalformedModel("label out of range"));
        }
        Ok(Dataset {
            height,
            width,
            channels,
            features,
            labels,
        })
    }
}

fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as u32 as f32) / (u32::MAX as f32)
}

fn generate(
    count: usize,
    height: usize,
    width: usize,
    channels: usize,
    seed: u64,
) -> Dataset {
    let f = height * width * channels;
    // Per-class base patterns: smooth spatial waves distinct per class.
    let mut features = Vec::with_capacity(count * f);
    let mut labels = Vec::with_capacity(count);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for i in 0..count {
        let class = (i % CLASSES) as u8;
        labels.push(class);
        let (fy, fx) = (
            1.0 + (class % 5) as f32,
            1.0 + (class / 5 + 1) as f32 * 1.5,
        );
        for y in 0..height {
            for x in 0..width {
                for c in 0..channels {
                    let base = (fy * y as f32 / height as f32 * std::f32::consts::TAU
                        + c as f32)
                        .sin()
                        * (fx * x as f32 / width as f32 * std::f32::consts::TAU).cos();
                    let noise = (lcg(&mut state) - 0.5) * 0.4;
                    features.push((base * 0.5 + 0.5 + noise).clamp(0.0, 1.0));
                }
            }
        }
    }
    Dataset {
        height,
        width,
        channels,
        features,
        labels,
    }
}

/// Generates a synthetic MNIST-like dataset: `count` 28×28×1 images,
/// 10 balanced classes, deterministic per `seed`.
pub fn synthetic_mnist(count: usize, seed: u64) -> Dataset {
    generate(count, 28, 28, 1, seed)
}

/// Generates a synthetic CIFAR-10-like dataset: `count` 32×32×3 images.
pub fn synthetic_cifar10(count: usize, seed: u64) -> Dataset {
    generate(count, 32, 32, 3, seed)
}

/// Resizes every image of a dataset to `new_h` × `new_w` with bilinear
/// interpolation — the paper's §7.1 suggestion to "normalize input data,
/// e.g. all input images can be normalized to the size of 32×32" so the
/// training working set fits the EPC.
pub fn resize(data: &Dataset, new_h: usize, new_w: usize) -> Dataset {
    let (h, w, c) = data.dims();
    let f_old = data.feature_len();
    let f_new = new_h * new_w * c;
    let mut features = Vec::with_capacity(data.len() * f_new);
    for i in 0..data.len() {
        let src = &data.features[i * f_old..(i + 1) * f_old];
        for y in 0..new_h {
            for x in 0..new_w {
                // Map output pixel centers back into source coordinates.
                let sy = (y as f32 + 0.5) * h as f32 / new_h as f32 - 0.5;
                let sx = (x as f32 + 0.5) * w as f32 / new_w as f32 - 0.5;
                let y0 = sy.floor().clamp(0.0, (h - 1) as f32) as usize;
                let x0 = sx.floor().clamp(0.0, (w - 1) as f32) as usize;
                let y1 = (y0 + 1).min(h - 1);
                let x1 = (x0 + 1).min(w - 1);
                let dy = (sy - y0 as f32).clamp(0.0, 1.0);
                let dx = (sx - x0 as f32).clamp(0.0, 1.0);
                for ci in 0..c {
                    let at = |yy: usize, xx: usize| src[(yy * w + xx) * c + ci];
                    let top = at(y0, x0) * (1.0 - dx) + at(y0, x1) * dx;
                    let bottom = at(y1, x0) * (1.0 - dx) + at(y1, x1) * dx;
                    features.push(top * (1.0 - dy) + bottom * dy);
                }
            }
        }
    }
    Dataset {
        height: new_h,
        width: new_w,
        channels: c,
        features,
        labels: data.labels.clone(),
    }
}

/// Normalizes a flat image batch to zero mean and unit variance per
/// feature-wise global statistics (the paper's §7.1 "data normalization").
pub fn normalize(images: &Tensor) -> Tensor {
    let n = images.len() as f32;
    if n == 0.0 {
        return images.clone();
    }
    let mean: f32 = images.data().iter().sum::<f32>() / n;
    let var: f32 = images.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    images.map(|v| (v - mean) / std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic_mnist(50, 3);
        let b = synthetic_mnist(50, 3);
        let c = synthetic_mnist(50, 4);
        assert_eq!(a.features, b.features);
        assert_ne!(a.features, c.features);
    }

    #[test]
    fn dims_and_lengths() {
        let m = synthetic_mnist(30, 1);
        assert_eq!(m.dims(), (28, 28, 1));
        assert_eq!(m.feature_len(), 784);
        let c = synthetic_cifar10(30, 1);
        assert_eq!(c.dims(), (32, 32, 3));
        assert_eq!(c.feature_len(), 3072);
    }

    #[test]
    fn classes_balanced() {
        let d = synthetic_mnist(100, 1);
        let mut counts = [0usize; CLASSES];
        for i in 0..d.len() {
            counts[d.label(i).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn batches_are_views() {
        let d = synthetic_mnist(20, 1);
        let (x, y) = d.batch(5, 10).unwrap();
        assert_eq!(x.shape(), &[10, 784]);
        assert_eq!(y.shape(), &[10, 10]);
        // One-hot rows sum to one.
        for row in 0..10 {
            let s: f32 = y.data()[row * 10..(row + 1) * 10].iter().sum();
            assert_eq!(s, 1.0);
        }
        assert!(d.batch(15, 10).is_err());
    }

    #[test]
    fn nhwc_batches() {
        let d = synthetic_cifar10(8, 1);
        let (x, _) = d.batch_nhwc(0, 4).unwrap();
        assert_eq!(x.shape(), &[4, 32, 32, 3]);
    }

    #[test]
    fn pixel_range_is_unit_interval() {
        let d = synthetic_mnist(50, 9);
        assert!(d.features.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn split_partitions() {
        let d = synthetic_mnist(30, 1);
        let (train, test) = d.split(20);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.feature_len(), d.feature_len());
    }

    #[test]
    fn serialization_roundtrip() {
        let d = synthetic_mnist(10, 5);
        let bytes = d.to_bytes();
        let d2 = Dataset::from_bytes(&bytes).unwrap();
        assert_eq!(d2.features, d.features);
        assert_eq!(d2.labels, d.labels);
        assert!(Dataset::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Dataset::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn overflowing_shape_product_is_rejected() {
        // height = width = channels = count = u32::MAX: the unchecked
        // `count * f * 4` panics in debug builds and wraps in release.
        let header = [u32::MAX.to_le_bytes(); 4].concat();
        assert_eq!(
            Dataset::from_bytes(&header).unwrap_err(),
            TensorError::MalformedModel("length mismatch")
        );
    }

    #[test]
    fn classes_are_separable_by_mean_pattern() {
        // The mean image of class 0 must differ substantially from class 1
        // (otherwise nothing could learn them apart).
        let d = synthetic_mnist(200, 2);
        let f = d.feature_len();
        let mut mean0 = vec![0.0f32; f];
        let mut mean1 = vec![0.0f32; f];
        let (mut n0, mut n1) = (0, 0);
        for i in 0..d.len() {
            match d.label(i).unwrap() {
                0 => {
                    for (j, m) in mean0.iter_mut().enumerate() {
                        *m += d.features[i * f + j];
                    }
                    n0 += 1;
                }
                1 => {
                    for (j, m) in mean1.iter_mut().enumerate() {
                        *m += d.features[i * f + j];
                    }
                    n1 += 1;
                }
                _ => {}
            }
        }
        let dist: f32 = mean0
            .iter()
            .zip(mean1.iter())
            .map(|(a, b)| (a / n0 as f32 - b / n1 as f32).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "class means too close: {dist}");
    }

    #[test]
    fn resize_shrinks_dimensions_and_preserves_labels() {
        let d = synthetic_mnist(20, 3);
        let small = resize(&d, 14, 14);
        assert_eq!(small.dims(), (14, 14, 1));
        assert_eq!(small.len(), 20);
        for i in 0..20 {
            assert_eq!(small.label(i), d.label(i));
        }
        assert!(small.byte_len() < d.byte_len());
    }

    #[test]
    fn resize_identity_is_lossless() {
        let d = synthetic_mnist(3, 1);
        let same = resize(&d, 28, 28);
        for (a, b) in same.features.iter().zip(d.features.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn resize_preserves_value_range() {
        let d = synthetic_cifar10(5, 9);
        let small = resize(&d, 8, 8);
        assert!(small
            .features
            .iter()
            .all(|&v| (-0.001..=1.001).contains(&v)));
    }

    #[test]
    fn resized_classes_remain_separable() {
        // The class structure must survive downscaling (the paper's whole
        // point: normalize without destroying accuracy).
        let d = resize(&synthetic_mnist(100, 2), 14, 14);
        let f = d.feature_len();
        let mut mean0 = vec![0.0f32; f];
        let mut mean1 = vec![0.0f32; f];
        let (mut n0, mut n1) = (0, 0);
        for i in 0..d.len() {
            match d.label(i).unwrap() {
                0 => {
                    for (j, m) in mean0.iter_mut().enumerate() {
                        *m += d.features[i * f + j];
                    }
                    n0 += 1;
                }
                1 => {
                    for (j, m) in mean1.iter_mut().enumerate() {
                        *m += d.features[i * f + j];
                    }
                    n1 += 1;
                }
                _ => {}
            }
        }
        let dist: f32 = mean0
            .iter()
            .zip(mean1.iter())
            .map(|(a, b)| (a / n0 as f32 - b / n1 as f32).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 0.5, "resized class means too close: {dist}");
    }

    #[test]
    fn normalize_centers_data() {
        let d = synthetic_mnist(10, 1);
        let (x, _) = d.batch(0, 10).unwrap();
        let n = normalize(&x);
        let mean: f32 = n.data().iter().sum::<f32>() / n.len() as f32;
        assert!(mean.abs() < 1e-4);
    }
}
