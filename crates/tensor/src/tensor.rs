//! Dense row-major `f32` tensors and their kernels.

use crate::TensorError;
use std::fmt;

/// A dense tensor of `f32` values in row-major order.
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, …]", self.data[0], self.data[1])
        }
    }
}

/// The element count of `shape`, or `None` if the product overflows
/// `usize` — the one place a shape that came from outside the program is
/// multiplied out ([`Tensor::from_vec`], `bytes::Reader::shape`).
pub fn checked_elements(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not
    /// equal the shape's element count, or that count overflows `usize`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Tensor, TensorError> {
        let expect = checked_elements(shape);
        if expect != Some(data.len()) {
            let needs = expect.map_or("more than usize::MAX".to_string(), |n| n.to_string());
            return Err(TensorError::ShapeMismatch {
                op: "from_vec",
                detail: format!("shape {shape:?} needs {needs} values, got {}", data.len()),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a scalar tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Xavier/Glorot-style uniform initialization from a caller-provided RNG.
    pub fn glorot<R: rand::Rng>(shape: &[usize], rng: &mut R) -> Tensor {
        let fan_in = *shape.first().unwrap_or(&1) as f32;
        let fan_out = *shape.last().unwrap_or(&1) as f32;
        let limit = (6.0 / (fan_in + fan_out)).sqrt();
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-limit..=limit)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (for EPC accounting).
    pub fn byte_len(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// The underlying data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on element-count mismatch.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let expect: usize = shape.iter().product();
        if expect != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                detail: format!("{:?} -> {shape:?}", self.shape),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Elementwise combination of same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                detail: format!("{:?} vs {:?}", self.shape, rhs.shape),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Matrix multiplication: `[m, k] × [k, n] -> [m, n]`.
    ///
    /// Delegates to the blocked kernel layer ([`crate::kernels::matmul`])
    /// with a serial pool. Zero operands are *not* skipped: `0 × NaN` is
    /// NaN and must propagate.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless both operands are
    /// rank-2 with matching inner dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        crate::kernels::matmul(&crate::kernels::WorkerPool::serial(), self, rhs).map(|(out, _)| out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        let &[m, n] = &self.shape[..] else {
            return Err(TensorError::ShapeMismatch {
                op: "transpose",
                detail: format!("{:?} (need rank 2)", self.shape),
            });
        };
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Tensor {
            shape: vec![n, m],
            data: out,
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Row-wise argmax for a `[batch, classes]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        let &[m, n] = &self.shape[..] else {
            return Err(TensorError::ShapeMismatch {
                op: "argmax_rows",
                detail: format!("{:?}", self.shape),
            });
        };
        Ok((0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_count() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        // A zero lhs element must still multiply the rhs: 0 × NaN = NaN.
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(&[2, 1], vec![f32::NAN, 2.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan());
        let inf = Tensor::from_vec(&[2, 1], vec![f32::INFINITY, 2.0]).unwrap();
        assert!(a.matmul(&inf).unwrap().data()[0].is_nan()); // 0·∞ + 2
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn identity_matmul_is_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap();
        let id = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = a.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), a.data());
        assert!(a.reshape(&[7]).is_err());
    }

    #[test]
    fn zip_and_map() {
        let a = Tensor::from_vec(&[3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(&[3], vec![10., 20., 30.]).unwrap();
        assert_eq!(a.zip(&b, |x, y| x + y).unwrap().data(), &[11., 22., 33.]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2., 4., 6.]);
        assert!(a.zip(&Tensor::zeros(&[4]), |x, _| x).is_err());
    }

    #[test]
    fn argmax_rows_picks_per_row() {
        let a = Tensor::from_vec(&[2, 3], vec![0., 5., 1., 9., 2., 3.]).unwrap();
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9e3779b97f4a7c15);
        let t = Tensor::glorot(&[10, 10], &mut rng);
        let limit = (6.0f32 / 20.0).sqrt() + 1e-6;
        assert!(t.data().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn scalar_and_byte_len() {
        let s = Tensor::scalar(4.5);
        assert_eq!(s.shape(), &[] as &[usize]);
        assert_eq!(s.len(), 1);
        assert_eq!(Tensor::zeros(&[4, 4]).byte_len(), 64);
    }
}
