//! The public surface is what is called.
//!
//! Every `pub` item declared under `crates/*/src` must be named by at least
//! one other `.rs` file of the repository: another module, a test, an
//! example, a report binary or the whole-stack `benchmark/`. An item that
//! only its own file names is used by that file alone (make it private) or
//! by that file's tests alone (delete it, or move it under `#[cfg(test)]`).
//!
//! The scan is by name, so it under-reports: a dead `new` hides behind every
//! live one. Its rules:
//! - a function, constant, static or field is used when another file names
//!   it; a re-export (`pub use`) is not a use;
//! - a type (struct, enum, trait, alias, union) is also used when a used
//!   public item of its own file names it in its signature, because a public
//!   function cannot return a private type;
//! - a `pub mod m` is used when a file outside its crate's `src/` writes
//!   `m::`;
//! - restricted visibilities (`pub(crate)`, ...) and items under
//!   `#[cfg(test)]` are not checked.
//!
//! Run alone: `cargo test --offline -p sixg-xsec --test public_surface`.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

fn is_ident(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// `src` without comments and with every string and char literal emptied,
/// newlines kept: what is left names only code.
fn code_only(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let mut out = String::with_capacity(src.len());
    // Copies the newlines of `c[from..to]`, so line numbers survive.
    let newlines = |out: &mut String, from: usize, to: usize| {
        out.extend(c[from..to.min(c.len())].iter().filter(|&&ch| ch == '\n'));
    };
    let mut i = 0;
    while i < c.len() {
        let after_ident = i > 0 && is_ident(c[i - 1]);
        let hashes = (1..).take_while(|&h| at(i + h) == '#').count();
        let start = i;
        if c[i] == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < c.len() {
                match (c[i], at(i + 1)) {
                    ('/', '*') => (depth, i) = (depth + 1, i + 2),
                    ('*', '/') => (depth, i) = (depth - 1, i + 2),
                    _ => i += 1,
                }
                if depth == 0 {
                    break;
                }
            }
            newlines(&mut out, start, i);
        } else if c[i] == 'r' && !after_ident && at(i + 1 + hashes) == '"' {
            // A raw string: `r"..."`, `r#"..."#`, ...
            i += 2 + hashes;
            while i < c.len() && !(c[i] == '"' && (1..=hashes).all(|h| at(i + h) == '#')) {
                i += 1;
            }
            i += 1 + hashes;
            newlines(&mut out, start, i);
            out.push_str("\"\"");
        } else if c[i] == '"' {
            i += 1;
            while i < c.len() && c[i] != '"' {
                i += if c[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            newlines(&mut out, start, i);
            out.push_str("\"\"");
        } else if c[i] == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal (a lifetime has no closing quote).
            i += 2;
            while i < c.len() && c[i] != '\'' {
                i += 1;
            }
            i += 1;
            out.push_str("' '");
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c)).filter(|w| w.starts_with(|c: char| !c.is_ascii_digit()))
}

/// Length of the item starting at `text`'s beginning: through its first `;`
/// or through the `}` closing its first `{`, whichever comes first.
fn item_len(text: &str) -> usize {
    let mut depth = 0;
    for (k, ch) in text.char_indices() {
        match ch {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' => depth -= 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            ';' if depth == 0 => return k + 1,
            _ => {}
        }
    }
    text.len()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Fn,
    Type,
    Const,
    Field,
    Mod,
}

struct Item {
    file: usize,
    line: usize,
    kind: Kind,
    name: String,
    /// The names its public signature carries (the types it exposes).
    signature: HashSet<String>,
}

/// The `pub` items a file's code declares outside `#[cfg(test)]`.
fn declarations(file: usize, code: &str) -> Vec<Item> {
    let mut items = Vec::new();
    let mut pos = 0;
    while let Some(k) = code[pos..].find(['#', 'p']).map(|k| pos + k) {
        let rest = &code[k..];
        pos = k + 1;
        if k > 0 && is_ident(code[..k].chars().next_back().unwrap()) {
            continue;
        }
        if rest.starts_with("#[cfg(test)]") {
            // Skip the attribute's item: a whole `mod tests`, a helper fn, ...
            let item = k + "#[cfg(test)]".len();
            pos = item + item_len(&code[item..]);
            continue;
        }
        let Some(decl) = rest.strip_prefix("pub ").map(str::trim_start) else { continue };
        let words: Vec<&str> = idents(decl).take(8).collect();
        // `const fn`, `async fn`, `unsafe fn` and `extern "C" fn` are functions.
        let mut q = 0;
        while q < words.len()
            && (matches!(words[q], "async" | "unsafe" | "extern")
                || (words[q] == "const"
                    && matches!(words.get(q + 1), Some(&("fn" | "async" | "unsafe")))))
        {
            q += 1;
        }
        let word = |n: usize| words.get(q + n).copied().unwrap_or("");
        let after_name = || {
            let keyword = decl.find(word(0)).unwrap_or(0) + word(0).len();
            let name = decl[keyword..].find(word(1)).map_or(0, |s| keyword + s + word(1).len());
            &decl[name..]
        };
        let (kind, name, signature) = match word(0) {
            "use" | "" => continue,
            "fn" | "struct" | "union" => {
                let sig = after_name();
                let end = sig.find(['{', ';']).unwrap_or(sig.len());
                (if word(0) == "fn" { Kind::Fn } else { Kind::Type }, word(1), &sig[..end])
            }
            "enum" | "trait" | "type" => {
                let sig = after_name();
                (Kind::Type, word(1), &sig[..item_len(sig)])
            }
            "const" | "static" => {
                (Kind::Const, if word(1) == "mut" { word(2) } else { word(1) }, "")
            }
            "mod" => (Kind::Mod, word(1), ""),
            field if decl.starts_with(field) && decl[field.len()..].trim_start().starts_with(':') => {
                // The field's type runs to the `,` or `}` that closes it.
                let sig = &decl[field.len()..];
                let mut depth = 0;
                let end = sig
                    .char_indices()
                    .find(|&(_, c)| {
                        match c {
                            '<' | '(' | '[' | '{' => depth += 1,
                            '>' | ')' | ']' | '}' if depth > 0 => depth -= 1,
                            ',' | '}' | ')' => return depth == 0,
                            _ => {}
                        }
                        false
                    })
                    .map_or(sig.len(), |(e, _)| e);
                (Kind::Field, field, &sig[..end])
            }
            _ => continue,
        };
        let line = code[..k].matches('\n').count() + 1;
        let signature = idents(signature).map(str::to_string).collect();
        items.push(Item { file, line, kind, name: name.to_string(), signature });
    }
    items
}

/// The names a file uses (re-exports excluded), and those it writes as a
/// path segment (`m::`).
fn uses(code: &str) -> (HashSet<String>, HashSet<String>) {
    let mut text = code.to_string();
    while let Some(k) = text.find("pub use ") {
        let end = text[k..].find(';').map_or(text.len(), |e| k + e + 1);
        text.replace_range(k..end, "");
    }
    let named = idents(&text).map(str::to_string).collect();
    let mut segments: Vec<&str> = text.split("::").collect();
    segments.pop();
    let paths = segments
        .into_iter()
        .filter(|before| before.ends_with(is_ident))
        .filter_map(|before| idents(before).last())
        .map(str::to_string)
        .collect();
    (named, paths)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The crate of a file under `crates/<crate>/src/`.
fn product_crate(rel: &str) -> Option<&str> {
    let (krate, inner) = rel.strip_prefix("crates/")?.split_once('/')?;
    inner.starts_with("src/").then_some(krate)
}

/// `path:line kind name` for every public item no other file names.
fn orphans(root: &Path) -> Vec<String> {
    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let rel: Vec<String> =
        paths.iter().map(|p| p.strip_prefix(root).unwrap().to_string_lossy().into()).collect();
    let (mut items, mut file_uses) = (Vec::new(), Vec::new());
    for (f, path) in paths.iter().enumerate() {
        let code = code_only(&fs::read_to_string(path).unwrap());
        if product_crate(&rel[f]).is_some() {
            items.extend(declarations(f, &code));
        }
        file_uses.push(uses(&code));
    }
    let mut alive: Vec<bool> = items
        .iter()
        .map(|item| match item.kind {
            Kind::Mod => (0..rel.len()).any(|g| {
                product_crate(&rel[g]) != product_crate(&rel[item.file])
                    && file_uses[g].1.contains(&item.name)
            }),
            _ => (0..rel.len()).any(|g| g != item.file && file_uses[g].0.contains(&item.name)),
        })
        .collect();
    // A type that a used public item of its own file exposes stays public.
    while let Some(a) = (0..items.len()).find(|&a| {
        !alive[a]
            && items[a].kind == Kind::Type
            && (0..items.len()).any(|b| {
                alive[b]
                    && b != a
                    && items[b].file == items[a].file
                    && items[b].signature.contains(&items[a].name)
            })
    }) {
        alive[a] = true;
    }
    let orphans = items.iter().zip(alive).filter(|(_, alive)| !alive);
    orphans.map(|(i, _)| format!("{}:{} {:?} {}", rel[i.file], i.line, i.kind, i.name)).collect()
}

#[test]
fn every_public_item_is_named_outside_its_own_file() {
    let orphans = orphans(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    assert!(
        orphans.is_empty(),
        "{} public item(s) named only by their own file; make each private, \
         or delete it (or move it under #[cfg(test)]) if only its tests use it:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
}

#[test]
fn the_scan_sees_an_orphan_and_its_callers() {
    let src = r#"
        pub mod inner;
        pub use inner::Reexported;
        pub struct Exposed;
        pub struct Hidden { pub field: Vec<u8>, private: u8 }
        /// pub fn in_a_comment() {}
        pub fn called(x: &str) -> Exposed { let _ = "pub fn in_a_string()"; Exposed }
        pub const fn orphan() {}
        pub(crate) fn restricted() {}
        #[cfg(test)]
        pub fn test_only() {}
        #[cfg(test)]
        mod tests { pub fn in_tests() {} }
    "#;
    let found: Vec<(Kind, String)> = declarations(0, &code_only(src))
        .into_iter()
        .map(|item| (item.kind, item.name))
        .collect();
    let want = [
        (Kind::Mod, "inner"),
        (Kind::Type, "Exposed"),
        (Kind::Type, "Hidden"),
        (Kind::Field, "field"),
        (Kind::Fn, "called"),
        (Kind::Fn, "orphan"),
    ];
    assert_eq!(found, want.map(|(k, n)| (k, n.to_string())));
    let (named, paths) = uses(&code_only("pub use a::Reexported; x::called(b'q', 'c', r#\"s\"#);"));
    assert!(named.contains("called") && paths.contains("x") && !paths.contains("called"));
    assert!(!named.contains("Reexported") && !named.contains("s") && !named.contains("q"));
}
