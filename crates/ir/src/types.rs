//! Scalar and memory types.
//!
//! [`Type`] is the lightweight `Copy` type carried by every SSA value.
//! [`MemType`] describes the shape of memory objects (allocas, globals, and
//! `getelementptr` element types) and additionally supports multi-dimensional
//! arrays of scalars, which is all the PolyBench kernels require.

/// Lane element of a vector type. Only 64-bit lanes are modeled; that is
/// what the paper's kernels (double arrays, i64 induction arithmetic)
/// produce, and it keeps every lane exactly one memory word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum VecElem {
    /// 64-bit integer lanes.
    I64,
    /// 64-bit IEEE-754 float lanes.
    F64,
}

impl VecElem {
    /// The scalar type of one lane.
    pub fn scalar(self) -> Type {
        match self {
            VecElem::I64 => Type::I64,
            VecElem::F64 => Type::F64,
        }
    }

    /// Whether lanes are floating-point.
    pub fn is_float(self) -> bool {
        matches!(self, VecElem::F64)
    }
}

/// A fixed-width SIMD vector type `<lanes x elem>`.
///
/// `lanes` is restricted to 2, 4, or 8 so every vector type has a stable
/// single-identifier textual name (`v4f64`) the zero-copy lexer can treat
/// like any other type keyword.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VecTy {
    /// Lane element type.
    pub elem: VecElem,
    /// Lane count; one of 2, 4, 8.
    pub lanes: u8,
}

impl VecTy {
    /// Construct a vector type; panics unless `lanes` is 2, 4, or 8.
    pub fn new(elem: VecElem, lanes: u8) -> VecTy {
        assert!(
            matches!(lanes, 2 | 4 | 8),
            "vector lane count must be 2, 4, or 8, got {lanes}"
        );
        VecTy { elem, lanes }
    }
}

/// Scalar first-class type of an SSA value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Type {
    /// No value (result type of stores, branches, `ret void`...).
    Void,
    /// 1-bit boolean, the result of comparisons.
    I1,
    /// 8-bit integer.
    I8,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
    /// Opaque pointer (as in modern LLVM, pointers are untyped).
    Ptr,
    /// Fixed-width SIMD vector (`<N x f64>` / `<N x i64>`).
    Vec(VecTy),
}

impl Type {
    /// A vector type with the given element and lane count.
    pub fn vec(elem: VecElem, lanes: u8) -> Type {
        Type::Vec(VecTy::new(elem, lanes))
    }

    /// Whether the type is an integer type (including `i1`).
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I32 | Type::I64)
    }

    /// Whether the type is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F64)
    }

    /// Whether the type is a vector type.
    pub fn is_vector(self) -> bool {
        matches!(self, Type::Vec(_))
    }

    /// The vector descriptor, if this is a vector type.
    pub fn vec_ty(self) -> Option<VecTy> {
        match self {
            Type::Vec(v) => Some(v),
            _ => None,
        }
    }

    /// Scalar type of one lane for vectors; `None` for scalar types.
    pub fn lane_type(self) -> Option<Type> {
        self.vec_ty().map(|v| v.elem.scalar())
    }

    /// Lane count for vectors; `None` for scalar types.
    pub fn lanes(self) -> Option<u8> {
        self.vec_ty().map(|v| v.lanes)
    }

    /// Whether lane-wise (or scalar) arithmetic on this type is
    /// floating-point: `f64` itself or a vector of `f64` lanes.
    pub fn arith_is_float(self) -> bool {
        match self {
            Type::Vec(v) => v.elem.is_float(),
            t => t.is_float(),
        }
    }

    /// Size of the type in bytes when stored in memory.
    ///
    /// `Void` has no size; asking for it is a logic error.
    pub fn size_bytes(self) -> u64 {
        match self {
            Type::Void => panic!("void has no size"),
            Type::I1 | Type::I8 => 1,
            Type::I32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
            Type::Vec(v) => 8 * v.lanes as u64,
        }
    }

    /// Number of bits for integer types; `None` otherwise.
    pub fn int_bits(self) -> Option<u32> {
        match self {
            Type::I1 => Some(1),
            Type::I8 => Some(8),
            Type::I32 => Some(32),
            Type::I64 => Some(64),
            _ => None,
        }
    }

    /// Canonical textual name (`i64`, `f64`, `ptr`, `v4f64`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Type::Void => "void",
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
            Type::Vec(v) => match (v.elem, v.lanes) {
                (VecElem::F64, 2) => "v2f64",
                (VecElem::F64, 4) => "v4f64",
                (VecElem::F64, 8) => "v8f64",
                (VecElem::I64, 2) => "v2i64",
                (VecElem::I64, 4) => "v4i64",
                (VecElem::I64, 8) => "v8i64",
                (_, lanes) => panic!("unsupported vector lane count {lanes}"),
            },
        }
    }

    /// Parse a canonical textual name produced by [`Type::name`].
    pub fn from_name(s: &str) -> Option<Type> {
        Some(match s {
            "void" => Type::Void,
            "i1" => Type::I1,
            "i8" => Type::I8,
            "i32" => Type::I32,
            "i64" => Type::I64,
            "f64" => Type::F64,
            "ptr" => Type::Ptr,
            "v2f64" => Type::vec(VecElem::F64, 2),
            "v4f64" => Type::vec(VecElem::F64, 4),
            "v8f64" => Type::vec(VecElem::F64, 8),
            "v2i64" => Type::vec(VecElem::I64, 2),
            "v4i64" => Type::vec(VecElem::I64, 4),
            "v8i64" => Type::vec(VecElem::I64, 8),
            _ => return None,
        })
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shape of a memory object: a scalar or a (possibly multi-dimensional)
/// array of scalars.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemType {
    /// A single scalar slot.
    Scalar(Type),
    /// `dims` gives the extent of each dimension, outermost first.
    Array {
        /// Scalar element type.
        elem: Type,
        /// Dimension extents, outermost first. Never empty.
        dims: Vec<u64>,
    },
}

impl MemType {
    /// Construct a one-dimensional array type.
    pub fn array1(elem: Type, n: u64) -> MemType {
        MemType::Array {
            elem,
            dims: vec![n],
        }
    }

    /// Construct a two-dimensional array type.
    pub fn array2(elem: Type, n0: u64, n1: u64) -> MemType {
        MemType::Array {
            elem,
            dims: vec![n0, n1],
        }
    }

    /// Scalar element type of the object.
    pub fn elem(&self) -> Type {
        match self {
            MemType::Scalar(t) => *t,
            MemType::Array { elem, .. } => *elem,
        }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            MemType::Scalar(t) => t.size_bytes(),
            MemType::Array { elem, dims } => elem.size_bytes() * dims.iter().product::<u64>(),
        }
    }

    /// Total number of scalar elements.
    pub fn num_elems(&self) -> u64 {
        match self {
            MemType::Scalar(_) => 1,
            MemType::Array { dims, .. } => dims.iter().product(),
        }
    }

    /// Byte strides per index position for a `getelementptr` through this
    /// type. Index 0 strides over whole objects; subsequent indices stride
    /// over successive array dimensions.
    ///
    /// For `[N x M x f64]` this returns `[N*M*8, M*8, 8]`.
    pub fn gep_strides(&self) -> Vec<u64> {
        match self {
            MemType::Scalar(t) => vec![t.size_bytes()],
            MemType::Array { elem, dims } => {
                let mut strides = vec![0u64; dims.len() + 1];
                let esz = elem.size_bytes();
                let mut acc = esz;
                for (i, d) in dims.iter().enumerate().rev() {
                    strides[i + 1] = acc;
                    acc *= d;
                }
                strides[0] = acc;
                strides
            }
        }
    }
}

impl std::fmt::Display for MemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemType::Scalar(t) => write!(f, "{t}"),
            MemType::Array { elem, dims } => {
                write!(f, "[")?;
                for d in dims {
                    write!(f, "{d} x ")?;
                }
                write!(f, "{elem}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Type::I1.size_bytes(), 1);
        assert_eq!(Type::I8.size_bytes(), 1);
        assert_eq!(Type::I32.size_bytes(), 4);
        assert_eq!(Type::I64.size_bytes(), 8);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::Ptr.size_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "void has no size")]
    fn void_size_panics() {
        Type::Void.size_bytes();
    }

    #[test]
    fn int_float_predicates() {
        assert!(Type::I1.is_int());
        assert!(Type::I64.is_int());
        assert!(!Type::F64.is_int());
        assert!(Type::F64.is_float());
        assert!(!Type::Ptr.is_int());
        assert!(!Type::Ptr.is_float());
    }

    #[test]
    fn name_round_trip() {
        for t in [
            Type::Void,
            Type::I1,
            Type::I8,
            Type::I32,
            Type::I64,
            Type::F64,
            Type::Ptr,
        ] {
            assert_eq!(Type::from_name(t.name()), Some(t));
        }
        for elem in [VecElem::I64, VecElem::F64] {
            for lanes in [2u8, 4, 8] {
                let t = Type::vec(elem, lanes);
                assert_eq!(Type::from_name(t.name()), Some(t));
            }
        }
        assert_eq!(Type::from_name("i128"), None);
        assert_eq!(Type::from_name("v3f64"), None);
    }

    #[test]
    fn vector_properties() {
        let t = Type::vec(VecElem::F64, 4);
        assert!(t.is_vector());
        assert!(!t.is_float());
        assert!(!t.is_int());
        assert!(t.arith_is_float());
        assert_eq!(t.lane_type(), Some(Type::F64));
        assert_eq!(t.lanes(), Some(4));
        assert_eq!(t.size_bytes(), 32);
        let i = Type::vec(VecElem::I64, 2);
        assert!(!i.arith_is_float());
        assert_eq!(i.lane_type(), Some(Type::I64));
        assert_eq!(i.size_bytes(), 16);
        assert_eq!(Type::I64.lane_type(), None);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn bad_lane_count_panics() {
        VecTy::new(VecElem::F64, 3);
    }

    #[test]
    fn array_sizes() {
        let a = MemType::array2(Type::F64, 10, 20);
        assert_eq!(a.size_bytes(), 10 * 20 * 8);
        assert_eq!(a.num_elems(), 200);
        assert_eq!(a.elem(), Type::F64);
    }

    #[test]
    fn gep_strides_2d() {
        let a = MemType::array2(Type::F64, 10, 20);
        assert_eq!(a.gep_strides(), vec![1600, 160, 8]);
    }

    #[test]
    fn gep_strides_scalar() {
        assert_eq!(MemType::Scalar(Type::F64).gep_strides(), vec![8]);
        assert_eq!(MemType::Scalar(Type::I32).gep_strides(), vec![4]);
    }

    #[test]
    fn gep_strides_3d() {
        let a = MemType::Array {
            elem: Type::I32,
            dims: vec![2, 3, 4],
        };
        assert_eq!(a.gep_strides(), vec![96, 48, 16, 4]);
    }

    #[test]
    fn display_mem_type() {
        assert_eq!(MemType::Scalar(Type::I64).to_string(), "i64");
        assert_eq!(MemType::array1(Type::F64, 7).to_string(), "[7 x f64]");
        assert_eq!(
            MemType::array2(Type::F64, 3, 4).to_string(),
            "[3 x 4 x f64]"
        );
    }
}
