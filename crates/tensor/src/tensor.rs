//! Dense row-major tensors with mixed-precision storage.
//!
//! A [`Tensor`] owns its elements in one of three storage precisions
//! ([`DType`]). Casting between precisions goes through the bit-exact
//! software converters in [`crate::f16`]/[`crate::bf16`], so precision loss
//! in the reproduction matches real mixed-precision training.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bf16::Bf16;
use crate::dtype::DType;
use crate::error::TensorError;
use crate::f16::F16;

/// Backing storage for a tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Storage {
    F32(Vec<f32>),
    F16(Vec<F16>),
    BF16(Vec<Bf16>),
}

impl Storage {
    fn len(&self) -> usize {
        match self {
            Storage::F32(v) => v.len(),
            Storage::F16(v) => v.len(),
            Storage::BF16(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> f32 {
        match self {
            Storage::F32(v) => v[i],
            Storage::F16(v) => v[i].to_f32(),
            Storage::BF16(v) => v[i].to_f32(),
        }
    }

    fn set(&mut self, i: usize, x: f32) {
        match self {
            Storage::F32(v) => v[i] = x,
            Storage::F16(v) => v[i] = F16::from_f32(x),
            Storage::BF16(v) => v[i] = Bf16::from_f32(x),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            Storage::F32(_) => DType::F32,
            Storage::F16(_) => DType::F16,
            Storage::BF16(_) => DType::BF16,
        }
    }
}

/// A dense, row-major, owned tensor.
///
/// # Examples
///
/// ```
/// use dos_tensor::{Tensor, DType};
/// let t = Tensor::zeros(&[2, 3], DType::F32);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.size_bytes(), 24);
/// let h = t.to_dtype(DType::F16);
/// assert_eq!(h.size_bytes(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    storage: Storage,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(shape: &[usize], dtype: DType) -> Tensor {
        let n: usize = shape.iter().product();
        let storage = match dtype {
            DType::F32 => Storage::F32(vec![0.0; n]),
            DType::F16 => Storage::F16(F16::zeroed_vec(n)),
            DType::BF16 => Storage::BF16(vec![Bf16::ZERO; n]),
        };
        Tensor { shape: shape.to_vec(), storage }
    }

    /// A tensor filled with `value` (rounded to `dtype`).
    pub fn full(shape: &[usize], dtype: DType, value: f32) -> Tensor {
        let mut t = Tensor::zeros(shape, dtype);
        for i in 0..t.numel() {
            t.storage.set(i, value);
        }
        t
    }

    /// Builds an FP32 tensor from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if data.len() != n {
            return Err(TensorError::ShapeMismatch {
                expected: n,
                actual: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor { shape: shape.to_vec(), storage: Storage::F32(data) })
    }

    /// A tensor of i.i.d. normal samples with the given standard deviation,
    /// stored in FP32 (Box–Muller over the supplied RNG; deterministic for a
    /// seeded RNG).
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape: shape.to_vec(), storage: Storage::F32(data) }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.storage.len()
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        self.storage.dtype()
    }

    /// Bytes occupied by the elements.
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype().size_bytes()
    }

    /// Reads element `i` (flat index) as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> f32 {
        self.storage.get(i)
    }

    /// Writes element `i` (flat index), rounding to the storage precision.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, x: f32) {
        self.storage.set(i, x);
    }

    /// Borrows the underlying FP32 data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the tensor is not FP32.
    pub fn as_f32(&self) -> Result<&[f32], TensorError> {
        match &self.storage {
            Storage::F32(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch { expected: DType::F32, actual: self.dtype() }),
        }
    }

    /// Mutably borrows the underlying FP32 data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the tensor is not FP32.
    pub fn as_f32_mut(&mut self) -> Result<&mut [f32], TensorError> {
        let dtype = self.dtype();
        match &mut self.storage {
            Storage::F32(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch { expected: DType::F32, actual: dtype }),
        }
    }

    /// Copies the elements out as an FP32 vector (upcasting if needed).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        (0..self.numel()).map(|i| self.storage.get(i)).collect()
    }

    /// Casts to another precision, rounding with round-to-nearest-even.
    /// Casting to the same dtype clones.
    pub fn to_dtype(&self, dtype: DType) -> Tensor {
        if dtype == self.dtype() {
            return self.clone();
        }
        let n = self.numel();
        let storage = match dtype {
            DType::F32 => Storage::F32((0..n).map(|i| self.storage.get(i)).collect()),
            DType::F16 => {
                Storage::F16((0..n).map(|i| F16::from_f32(self.storage.get(i))).collect())
            }
            DType::BF16 => {
                Storage::BF16((0..n).map(|i| Bf16::from_f32(self.storage.get(i))).collect())
            }
        };
        Tensor { shape: self.shape.clone(), storage }
    }

    /// Reshapes in place without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the new shape's element
    /// count differs.
    pub fn reshape(&mut self, shape: &[usize]) -> Result<(), TensorError> {
        let n: usize = shape.iter().product();
        if n != self.numel() {
            return Err(TensorError::ShapeMismatch {
                expected: self.numel(),
                actual: n,
                shape: shape.to_vec(),
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Element-wise in-place addition: `self += other`.
    ///
    /// Mirrors the gradient-accumulation kernel
    /// (`old_grad.add_(new_grad)`) the paper moves to the GPU (§3).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.numel(),
                actual: other.numel(),
                shape: other.shape.clone(),
            });
        }
        for i in 0..self.numel() {
            let v = self.storage.get(i) + other.storage.get(i);
            self.storage.set(i, v);
        }
        Ok(())
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for i in 0..self.numel() {
            let v = self.storage.get(i) * s;
            self.storage.set(i, v);
        }
    }

    /// The L2 norm of the elements (computed in f64 for stability).
    pub fn l2_norm(&self) -> f64 {
        (0..self.numel()).map(|i| (self.storage.get(i) as f64).powi(2)).sum::<f64>().sqrt()
    }

    /// Iterates over elements as `f32`.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.numel()).map(move |i| self.storage.get(i))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor<{}>{:?}", self.dtype(), self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_full_and_accessors() {
        let t = Tensor::zeros(&[2, 3], DType::F32);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.get(0), 0.0);
        let u = Tensor::full(&[4], DType::F16, 1.5);
        assert_eq!(u.get(3), 1.5);
        assert_eq!(u.size_bytes(), 8);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(&[2, 2], vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { expected: 4, actual: 3, .. }));
    }

    #[test]
    fn f16_storage_rounds() {
        let mut t = Tensor::zeros(&[1], DType::F16);
        t.set(0, 1.0 + 1.0 / 4096.0); // below f16 ULP at 1.0
        assert_eq!(t.get(0), 1.0);
    }

    #[test]
    fn dtype_casting_round_trip() {
        let t = Tensor::from_vec(&[3], vec![0.1, -2.5, 100.0]).unwrap();
        let h = t.to_dtype(DType::F16);
        assert_eq!(h.dtype(), DType::F16);
        let back = h.to_dtype(DType::F32);
        // 0.1 is not representable; error bounded by f16 precision.
        assert!((back.get(0) - 0.1).abs() < 1e-4);
        assert_eq!(back.get(1), -2.5);
        assert_eq!(back.get(2), 100.0);
    }

    #[test]
    fn as_f32_enforces_dtype() {
        let t = Tensor::zeros(&[2], DType::F16);
        assert!(matches!(t.as_f32(), Err(TensorError::DTypeMismatch { .. })));
        let u = Tensor::zeros(&[2], DType::F32);
        assert_eq!(u.as_f32().unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        t.reshape(&[3, 2]).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(5), 5.0);
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.to_f32_vec(), vec![1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.to_f32_vec(), vec![3.0, 5.0, 7.0]);
        let c = Tensor::zeros(&[4], DType::F32);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn randn_is_deterministic_and_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[1000], 0.02, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = Tensor::randn(&[1000], 0.02, &mut rng2);
        assert_eq!(a, b);
        let mean: f32 = a.iter().sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.005, "mean {mean} too far from 0");
        let var: f32 = a.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 1000.0;
        assert!((var.sqrt() - 0.02).abs() < 0.005, "std {} off", var.sqrt());
    }

    #[test]
    fn l2_norm() {
        let t = Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap();
        assert!((t.l2_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_dtype_and_shape() {
        let t = Tensor::zeros(&[2, 2], DType::BF16);
        assert_eq!(t.to_string(), "Tensor<bf16>[2, 2]");
    }
}
