//! A record whose length field claims `u32::MAX` bytes or elements must
//! be refused before anything is allocated for it: a corrupted length
//! read back from the disk store must cost nothing.
//!
//! The test lives in its own integration-test binary so the recording
//! `#[global_allocator]` sees only this test's allocations.

use splendid_core::detransform::RegionReport;
use splendid_core::{DecompileOutput, FidelityTier, FunctionOutput, NamingStats};
use splendid_serve::codec::{
    decode_cert_record, decode_function_record, decode_module_record_with_counts,
    encode_cert_record, encode_function_record, encode_module_record, CodecError, ModuleCounts,
    CODEC_HEADER_LEN,
};
use splendid_serve::Certificate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that remembers the largest single request.
/// `realloc` and `alloc_zeroed` default to `alloc`, so they count too.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

#[test]
fn u32_max_length_fields_fail_without_allocating() {
    let text = "void f() {\n}\n";
    let function = encode_function_record(&FunctionOutput {
        text: text.into(),
        naming: NamingStats::default(),
        gotos: 0,
        tier: FidelityTier::Natural,
    });
    let module = encode_module_record(
        &DecompileOutput {
            source: text.into(),
            naming: NamingStats::default(),
            regions: vec![RegionReport {
                region_name: "r".into(),
                caller_name: "f".into(),
                setup_removed: 1,
            }],
            gotos: 0,
        },
        &ModuleCounts::default(),
    );
    let cert = encode_cert_record(&Certificate {
        verified: false,
        tier: FidelityTier::Literal,
        mismatch: true,
        reason: "mismatch".into(),
    });
    type Decode = fn(&[u8]) -> Result<(), CodecError>;
    let function_kind: Decode = |b| decode_function_record(b).map(|_| ());
    let module_kind: Decode = |b| decode_module_record_with_counts(b).map(|_| ());
    let cert_kind: Decode = |b| decode_cert_record(b).map(|_| ());
    // (record, offset of one of its u32 length fields, its kind's decoder)
    let fields = [
        (&function, CODEC_HEADER_LEN, function_kind),
        (&module, CODEC_HEADER_LEN, module_kind),
        // The region count follows the source and the two naming counts.
        (&module, CODEC_HEADER_LEN + 4 + text.len() + 16, module_kind),
        // The reason follows the verified, tier and mismatch bytes.
        (&cert, CODEC_HEADER_LEN + 3, cert_kind),
    ];
    for (blob, at, decode) in fields {
        assert!(decode(blob).is_ok());
        let mut forged = blob.clone();
        forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        LARGEST.store(0, Ordering::Relaxed);
        let decoded = decode(&forged);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(decoded.is_err(), "length field at {at} must not decode");
        assert!(
            largest < 4096,
            "refusing the length field at {at} allocated {largest} bytes"
        );
    }
}
