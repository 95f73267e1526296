//! Wide stripes: EC-FRM's layout math over 300 disks.
//!
//! ```text
//! cargo run --release --example wide_stripe
//! ```
//!
//! The paper's construction (Eq. (1)–(4)) is pure arithmetic in `(n, k)`
//! and applies to arbitrarily wide stripes. This example lays out a
//! (300, 240) stripe and checks that 300 consecutive data elements land
//! on 300 different disks. It needs no field: the codes here compute in
//! `GF(2^8)`, whose byte symbols cap a coded stripe at 255 elements, so a
//! stripe this wide is layout only.

use ecfrm::layout::{EcFrmLayout, Layout};

fn main() {
    const K: usize = 240;
    const M: usize = 60;
    const N: usize = K + M;

    // 300 columns, gcd(300, 240) = 60 → 5 rows per stripe.
    let layout = EcFrmLayout::new(N, K);
    println!(
        "EC-FRM layout over {N} disks: {} rows/stripe ({} data + {} parity), r = {}",
        layout.rows_per_stripe(),
        layout.data_rows(),
        layout.parity_rows(),
        layout.r()
    );

    // Sequential data covers all 300 disks: a 300-element read loads no
    // disk twice.
    let mut load = vec![0usize; N];
    for idx in 0..N as u64 {
        load[layout.data_location(idx).disk] += 1;
    }
    assert!(load.iter().all(|&l| l == 1));
    println!("300 consecutive elements -> one element per disk (max load 1)");
}
