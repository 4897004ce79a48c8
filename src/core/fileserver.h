// The /mnt/help file service — "the interface seen by programs". Every
// window is a numbered directory of files:
//
//   /mnt/help/index      window number, tab, first line of the tag
//   /mnt/help/new/ctl    opening it creates a window (placed automatically
//                        near the current selection); reading it back yields
//                        the new window's number
//   /mnt/help/snarf      the cut buffer (what help/buf prints)
//   /mnt/help/stats      9P service metrics: per-op counters and latency
//                        percentiles, bytes in/out, in-flight depth, the
//                        shared-read path counters, and the socket
//                        connection layer's net_* block (accepts, live
//                        conns, reaps, backpressure stalls, frame errors,
//                        wire bytes — see src/fs/listener.h)
//   /mnt/help/open       write "<dir> <name[:addr]>" to open a file
//   /mnt/help/N/tag      the tag line
//   /mnt/help/N/body     the body text (writes replace; reads see UTF-8)
//   /mnt/help/N/bodyapp  append-only view of the body
//   /mnt/help/N/ctl      control messages (see Help::HandleCtl)
//
// Because these are ordinary VFS files, shell scripts get the entire GUI
// with cat/echo redirection — the paper's decl browser is ten lines of rc.
//
// Every handler installed here runs under the owning Help instance's 9P
// dispatch lock (NinepServer::LockDispatch), so the socket listener's loop
// and the UI thread cannot interleave inside Help; index and new/ctl
// snapshot their contents at Open time under that lock.
#ifndef SRC_CORE_FILESERVER_H_
#define SRC_CORE_FILESERVER_H_

#include <string_view>

namespace help {

class Help;
class Window;

// Installs /mnt/help/{index,new/ctl,snarf,open,stats}. Called from Help's
// constructor.
void InstallHelpFs(Help* h);

}  // namespace help

#endif  // SRC_CORE_FILESERVER_H_
