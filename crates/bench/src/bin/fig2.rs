//! Regenerates Fig. 2: the race between PUT(S(A)) and GET — split-stream
//! (Fig. 2a) exhibits a PC violation that same-stream (Fig. 2b) hides.

use ise_sim::experiments::fig2;

fn main() {
    ise_bench::cli::switches("usage: fig2", []);
    println!("Fig. 2: Core 0 runs S(A,1); S(B,1) with only A's page faulting.");
    println!("Core 1 reads B then A. PC forbids L(B)=1 && L(A)=0.\n");
    let r = fig2();
    println!(
        "(a) split-stream (§4.5): violation reachable = {}  [{} states explored]",
        r.split_stream_violates, r.states.0
    );
    println!(
        "(b) same-stream  (§4.6): violation reachable = {}  [{} states explored]",
        !r.same_stream_clean, r.states.1
    );
    assert!(r.split_stream_violates && r.same_stream_clean);
    println!(
        "\nConclusion (paper §4.6): supplying younger non-faulting stores through \
         the interface together with the faulting store lets the OS enforce \
         S_OS(A) <m S_OS(B), closing the race without any HW/SW barrier."
    );
}
