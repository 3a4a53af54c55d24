//! The prose's citations of markdown files resolve.

/// Every `*.md` file the prose cites — in `README.md`, `docs/*.md` and the
/// module docs of each `crates/*/src/lib.rs` — must exist, resolved against
/// the workspace root or the citing file's own directory.
#[test]
fn cited_markdown_files_exist() {
    use std::path::{Path, PathBuf};

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let list = |dir: &str| -> Vec<PathBuf> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir} must be listable: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        entries.sort();
        entries
    };
    let mut sources = vec![root.join("README.md")];
    sources.extend(
        list("docs")
            .into_iter()
            .filter(|path| path.extension().is_some_and(|ext| ext == "md")),
    );
    sources.extend(
        list("crates")
            .into_iter()
            .map(|krate| krate.join("src/lib.rs")),
    );

    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut dangling = Vec::new();
    for source in &sources {
        let text = std::fs::read_to_string(source)
            .unwrap_or_else(|e| panic!("{} must be readable: {e}", source.display()));
        let module_docs_only = source.extension().is_some_and(|ext| ext == "rs");
        let here = source.parent().expect("a file has a directory");
        for line in text.lines() {
            if module_docs_only && !line.trim_start().starts_with("//!") {
                continue;
            }
            for cited in line
                .split(|c: char| !is_path_char(c))
                .filter(|word| word.len() > 3 && word.ends_with(".md"))
            {
                if !root.join(cited).is_file() && !here.join(cited).is_file() {
                    dangling.push(format!("{} cites {cited}", source.display()));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "documentation cites files that do not exist:\n{}",
        dangling.join("\n")
    );
}
