package robust

import (
	"os"
	"path/filepath"
)

// WriteFileDurable replaces the file at path with data, atomically and
// durably. The bytes go to a temp file with a unique name beside path
// (created with its parent directory if missing), which is chmodded
// 0644, fsynced and closed before it is renamed over path; the directory
// is then fsynced so the rename itself survives a crash. Neither a kill
// mid-write nor a power loss right after the rename can leave a torn or
// vanished file, and concurrent writers to one path never publish each
// other's partial bytes: each renames only a file it wrote whole, and
// the last rename wins. On error the temp file is removed and path is
// untouched. Errors are returned unwrapped, so each caller keeps its own
// prefix.
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := writeSync(tmp, data); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// writeSync writes data to f and fsyncs it before closing, so the bytes
// are on stable storage before the caller publishes the file. f is
// closed on every path.
func writeSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Platforms and filesystems that refuse to fsync directories keep the
// pre-sync behavior.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
