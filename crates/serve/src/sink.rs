//! Pluggable result sinks with loss accounting.
//!
//! A sink receives each job's emission block (outcome line + payload
//! lines) in job order. Sinks are best-effort by contract: an I/O error
//! drops that block *at that sink*, increments its loss counter, and the
//! batch keeps running — a full disk must not take down a 10-hour sweep.
//! The batch summary reports per-sink losses so silence is never
//! mistaken for success.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// Where job blocks go. Implementations must tolerate arbitrary bytes
/// and must not reorder or merge blocks.
pub trait Sink {
    /// Sink name for the summary's loss table (e.g. `"jsonl:out.jsonl"`).
    fn name(&self) -> &str;
    /// Deliver one block. Return `false` if the block was lost.
    fn emit(&mut self, block: &str) -> bool;
    /// Flush buffered state; return `false` if flushing lost data.
    fn flush(&mut self) -> bool;
}

/// Accounting wrapper the engine keeps per sink.
pub struct SinkSlot {
    pub sink: Box<dyn Sink>,
    pub emitted: u64,
    pub lost: u64,
}

impl SinkSlot {
    pub fn new(sink: Box<dyn Sink>) -> Self {
        SinkSlot {
            sink,
            emitted: 0,
            lost: 0,
        }
    }

    pub fn deliver(&mut self, block: &str) {
        if self.sink.emit(block) {
            self.emitted += 1;
        } else {
            self.lost += 1;
        }
    }

    pub fn finish(&mut self) {
        if !self.sink.flush() {
            self.lost += 1;
        }
    }
}

/// Appends blocks to one JSONL file through a buffered writer.
pub struct JsonlFileSink {
    name: String,
    writer: Option<BufWriter<File>>,
}

impl JsonlFileSink {
    /// Create/truncate `path`. Creation failure yields a sink that loses
    /// everything (and says so in the summary) rather than a fatal error.
    pub fn create(path: &Path) -> Self {
        let name = format!("jsonl:{}", path.display());
        let writer = File::create(path).ok().map(BufWriter::new);
        JsonlFileSink { name, writer }
    }
}

impl Sink for JsonlFileSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn emit(&mut self, block: &str) -> bool {
        match &mut self.writer {
            Some(w) => match w.write_all(block.as_bytes()) {
                Ok(()) => true,
                Err(_) => {
                    // A failed write poisons the stream: drop the writer
                    // so later blocks count as lost instead of landing in
                    // a torn file.
                    self.writer = None;
                    false
                }
            },
            None => false,
        }
    }

    fn flush(&mut self) -> bool {
        match &mut self.writer {
            Some(w) => w.flush().is_ok(),
            None => true,
        }
    }
}

/// Streams blocks to stdout (for piping into `jq`-style consumers).
pub struct StdoutSink;

impl Sink for StdoutSink {
    fn name(&self) -> &str {
        "stdout"
    }

    fn emit(&mut self, block: &str) -> bool {
        let mut out = std::io::stdout().lock();
        out.write_all(block.as_bytes()).is_ok()
    }

    fn flush(&mut self) -> bool {
        std::io::stdout().lock().flush().is_ok()
    }
}

/// Collects blocks in memory. Clones share one buffer, so a caller keeps
/// a clone, boxes another into a [`SinkSlot`], and reads the blocks back
/// with [`VecSink::take`] once the batch has run.
#[derive(Default, Clone)]
pub struct VecSink {
    blocks: Rc<RefCell<Vec<String>>>,
}

impl VecSink {
    /// The blocks delivered so far, in delivery order; empties the buffer.
    pub fn take(&self) -> Vec<String> {
        self.blocks.take()
    }
}

impl Sink for VecSink {
    fn name(&self) -> &str {
        "vec"
    }

    fn emit(&mut self, block: &str) -> bool {
        self.blocks.borrow_mut().push(block.to_string());
        true
    }

    fn flush(&mut self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sink_writes_blocks_in_order() {
        let path =
            std::env::temp_dir().join(format!("gat_serve_sink_{}.jsonl", std::process::id()));
        let mut slot = SinkSlot::new(Box::new(JsonlFileSink::create(&path)));
        slot.deliver("{\"a\":1}\n");
        slot.deliver("{\"b\":2}\n");
        slot.finish();
        assert_eq!(slot.emitted, 2);
        assert_eq!(slot.lost, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vec_sink_hands_its_blocks_back_through_a_clone() {
        let sink = VecSink::default();
        let mut slot = SinkSlot::new(Box::new(sink.clone()));
        slot.deliver("a\n");
        slot.deliver("b\n");
        slot.finish();
        assert_eq!(slot.emitted, 2);
        assert_eq!(sink.take(), ["a\n", "b\n"]);
        assert!(sink.take().is_empty(), "take empties the buffer");
    }

    #[test]
    fn unwritable_file_sink_counts_losses_instead_of_failing() {
        let path = Path::new("/nonexistent-dir-for-sure/out.jsonl");
        let mut slot = SinkSlot::new(Box::new(JsonlFileSink::create(path)));
        slot.deliver("{\"a\":1}\n");
        slot.deliver("{\"b\":2}\n");
        slot.finish();
        assert_eq!(slot.emitted, 0);
        assert_eq!(slot.lost, 2);
    }
}
