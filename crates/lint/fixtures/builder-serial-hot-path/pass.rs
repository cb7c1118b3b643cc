//! Fixture: all loops and sorts run inside par:: helper spans.
impl GraphBuilder {
    pub fn build_chunked(self) -> CsrGraph {
        let (edges, offsets) = par::scatter_stable(&self.edges, 8, |e| e.0, |_, &e| e);
        par::run_chunks(&offsets, |chunk| {
            for e in chunk {
                consume(e);
            }
            chunk.par_sort_unstable();
        });
        finish(edges, offsets)
    }
}
